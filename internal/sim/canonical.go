package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/ramp-sim/ramp/internal/core"
	"github.com/ramp-sim/ramp/internal/microarch"
	"github.com/ramp-sim/ramp/internal/power"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/thermal"
	"github.com/ramp-sim/ramp/internal/workload"
)

// CanonicalJSON encodes v as canonical JSON: object keys sorted
// lexicographically at every nesting level, no insignificant whitespace,
// numbers preserved exactly as encoding/json first rendered them. Two
// values that marshal to the same JSON object — regardless of struct field
// declaration order, or whether one side is a struct and the other a
// decoded map — produce byte-identical output, which makes the encoding
// safe to hash as a cache key.
func CanonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("sim: canonical: %w", err)
	}
	// Round-trip through the generic form: maps re-marshal with sorted
	// keys, and json.Number keeps each numeric literal's original text so
	// no float precision is disturbed along the way.
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var generic any
	if err := dec.Decode(&generic); err != nil {
		return nil, fmt.Errorf("sim: canonical: %w", err)
	}
	out, err := json.Marshal(generic)
	if err != nil {
		return nil, fmt.Errorf("sim: canonical: %w", err)
	}
	return out, nil
}

// studyRequest is the hashed identity of a study: everything that can
// change its numbers. Serving layers key result caches on StudyKey, so any
// field influencing StudyResult must reach the hash through here.
type studyRequest struct {
	Config   Config               `json:"config"`
	Profiles []workload.Profile   `json:"profiles"`
	Techs    []scaling.Technology `json:"techs"`
}

// StudyKey returns a stable content-addressed key for a study request: the
// hex SHA-256 of the canonical JSON encoding of (Config, profile set,
// technology nodes). Identical inputs always map to the same key across
// processes and releases that keep the field set unchanged; any change to
// an input — an instruction budget, a profile parameter, a technology
// point — changes the key. The mechanism list is canonicalised first, so
// every spelling of one set (any order, any alias, the default four
// written out or omitted) hashes identically.
func StudyKey(cfg Config, profiles []workload.Profile, techs []scaling.Technology) (string, error) {
	cfg, err := canonicalizeConfigMechanisms(cfg)
	if err != nil {
		return "", err
	}
	return hashKey(studyRequest{Config: cfg, Profiles: profiles, Techs: techs})
}

// canonicalizeConfigMechanisms normalises Config.Mechanisms for hashing:
// canonical names, sorted and de-duplicated, nil for the default set.
// Every key derivation that hashes a Config (or its mechanism list) goes
// through this, which is what makes keys order- and alias-insensitive.
func canonicalizeConfigMechanisms(cfg Config) (Config, error) {
	canon, err := core.CanonicalMechanismNames(cfg.Mechanisms)
	if err != nil {
		return Config{}, fmt.Errorf("sim: %w", err)
	}
	cfg.Mechanisms = canon
	return cfg, nil
}

// hashKey is the shared canonical-JSON → hex SHA-256 key derivation.
func hashKey(v any) (string, error) {
	b, err := CanonicalJSON(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Per-stage key derivation. Where StudyKey hashes the entire request —
// so any change invalidates everything — each stage key hashes only the
// inputs that stage actually reads. That is the contract the stage cache
// relies on: a reliability-constant change must leave the timing and
// thermal keys untouched (their artifacts are reusable), while a trace
// length or machine change must invalidate all three.

// timingStageInputs are the fields the timing stage reads: the simulated
// machine, the trace length, and the workload itself. Technology, power,
// thermal, and reliability parameters deliberately do not appear — the
// paper keeps the microarchitecture (and hence the activity behaviour)
// fixed across technology points (§1.3).
// The optional Fidelity block appears only when the mode changes what the
// timing stage simulates (phase-mode systematic sampling); exact and
// adaptive omit it — they run the identical full simulation and share the
// artifact, and omission keeps exact keys byte-identical to pre-fidelity
// releases.
type timingStageInputs struct {
	Machine      microarch.Config      `json:"machine"`
	Instructions int64                 `json:"instructions"`
	Profile      workload.Profile      `json:"profile"`
	Fidelity     *fidelityTimingInputs `json:"fidelity,omitempty"`
}

// TimingKey returns the content-addressed key of the timing stage for one
// profile.
func TimingKey(cfg Config, prof workload.Profile) (string, error) {
	return hashKey(timingStageInputs{
		Machine:      cfg.Machine,
		Instructions: cfg.Instructions,
		Profile:      prof,
		Fidelity:     timingFidelityKeyInputs(cfg.Fidelity),
	})
}

// thermalStageInputs are the fields the power+thermal stage reads on top
// of the timing artifact: the power and thermal constants, the calibration
// policy, the evaluated technology point, and the base (anchor) technology
// — the latter because a scaled cell's sink-temperature target and
// app-power scale are functions of the base cell, which these same inputs
// determine. Config.RAMP deliberately does not appear.
// The optional Fidelity block appears for adaptive and phase modes, which
// replace the per-sample transient with phase-compressed error-bounded
// integration; exact omits it so pre-fidelity keys stay valid.
type thermalStageInputs struct {
	TimingKey string                 `json:"timing_key"`
	Power     power.Params           `json:"power"`
	Thermal   thermal.Params         `json:"thermal"`
	Calibrate bool                   `json:"calibrate_app_power"`
	Base      scaling.Technology     `json:"base"`
	Tech      scaling.Technology     `json:"tech"`
	Fidelity  *fidelityThermalInputs `json:"fidelity,omitempty"`
}

// ThermalKey returns the content-addressed key of the power+thermal stage
// for one (profile × technology) cell.
func ThermalKey(cfg Config, prof workload.Profile, tech scaling.Technology) (string, error) {
	tk, err := TimingKey(cfg, prof)
	if err != nil {
		return "", err
	}
	return thermalKeyFrom(cfg, tk, tech)
}

// thermalKeyFrom derives a cell's thermal key from its profile's timing
// key, so a study hashes each profile once however many cells it has.
func thermalKeyFrom(cfg Config, timingKey string, tech scaling.Technology) (string, error) {
	return hashKey(thermalStageInputs{
		TimingKey: timingKey,
		Power:     cfg.Power,
		Thermal:   cfg.Thermal,
		Calibrate: cfg.CalibrateAppPower,
		Base:      scaling.Base(),
		Tech:      tech,
		Fidelity:  thermalFidelityKeyInputs(cfg.Fidelity),
	})
}

// fitStageInputs are the fields the reliability stage reads on top of the
// thermal artifact: the RAMP failure-model constants, the mechanism
// selection, and the thermal-trace recording policy (it changes the
// assembled AppRun). QualFITPerMechanism does not appear — qualification
// scales raw FIT at study assembly and never reaches the per-cell
// artifacts. Mechanisms is the canonicalised list, omitted for the
// default set so pre-registry FIT keys stay valid; it appears here and
// not in the timing/thermal inputs because only the reliability stage
// reads it — thermal artifacts are shared across mechanism selections,
// which is what makes mechanism ablations nearly free on a warm cache.
type fitStageInputs struct {
	ThermalKey  string      `json:"thermal_key"`
	RAMP        core.Params `json:"ramp"`
	RecordTrace bool        `json:"record_thermal_trace"`
	Mechanisms  []string    `json:"mechanisms,omitempty"`
}

// fitKeyFrom derives a cell's reliability key from its thermal key,
// canonicalising the mechanism list.
func fitKeyFrom(cfg Config, thermalKey string) (string, error) {
	canon, err := core.CanonicalMechanismNames(cfg.Mechanisms)
	if err != nil {
		return "", fmt.Errorf("sim: %w", err)
	}
	return hashKey(fitStageInputs{
		ThermalKey:  thermalKey,
		RAMP:        cfg.RAMP,
		RecordTrace: cfg.RecordThermalTrace,
		Mechanisms:  canon,
	})
}

// FITKey returns the content-addressed key of the reliability stage for
// one (profile × technology) cell.
func FITKey(cfg Config, prof workload.Profile, tech scaling.Technology) (string, error) {
	tk, err := ThermalKey(cfg, prof, tech)
	if err != nil {
		return "", err
	}
	return fitKeyFrom(cfg, tk)
}
