package sim

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"github.com/ramp-sim/ramp/internal/core"
	"github.com/ramp-sim/ramp/internal/microarch"
	"github.com/ramp-sim/ramp/internal/power"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/thermal"
	"github.com/ramp-sim/ramp/internal/workload"
)

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

// hashKey is the shared canonical-JSON → hex SHA-256 key derivation. The
// canonical form is written straight into a pooled buffer by the value's
// encoding plan (appendCanonical), so a key costs one pass over the value
// and no intermediate documents.
func hashKey(v any) (string, error) {
	var b []byte
	select {
	case b = <-keyBufs:
	default:
		b = make([]byte, 0, 16<<10)
	}
	b, err := appendCanonical(b[:0], v)
	sum := sha256.Sum256(b)
	// Release the buffer only once hashed: the next key overwrites it.
	select {
	case keyBufs <- b:
	default:
	}
	if err != nil {
		return "", err
	}
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:]), nil
}

// keyBufs recycles canonical-encoding buffers across key derivations. It
// is a small free list rather than a sync.Pool so that reuse, and with it
// a key's allocation count, is deterministic: the race detector drops a
// quarter of sync.Pool puts on purpose.
var keyBufs = make(chan []byte, 8)

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

// The canonical encoder. Every content key is the SHA-256 of a value's
// canonical JSON: what encoding/json's Marshal produces, with the keys of
// every object sorted by their bytes at every nesting level. Rather than
// marshalling and re-sorting through generic maps, appendCanonical writes
// that form directly, following a plan built once per Go type by
// reflection. A plan applies encoding/json's rules: field names from json
// tags, `omitempty`, unexported and `json:"-"` fields skipped, integers and
// floats in Marshal's formatting (shortest round-trip digits, exponent
// form below 1e-6 and from 1e21), strings escaped as Marshal escapes them
// (HTML-safe, U+2028/U+2029 escaped). Invalid UTF-8 becomes a literal
// U+FFFD, which is what the marshal/decode/re-marshal round trip yields.
// The test reference CanonicalJSON is that round trip; the differential
// tests and FuzzCanonicalEncoder hold the two byte-identical.
//
// A type the plan cannot reproduce faithfully — one with its own
// MarshalJSON or MarshalText, an interface, an embedded struct, a
// `,string` or `omitzero` option, duplicate field names, a []byte, or a
// non-string map key — fails plan building with an error,
// so a key never silently diverges from the canonical form. NaN and ±Inf
// fail at encode time, as they do in encoding/json.

// encodeFn appends v's canonical JSON to dst.
type encodeFn func(dst []byte, v reflect.Value) ([]byte, error)

// typePlan is a type's encoding plan, or the reason it has none.
type typePlan struct {
	enc encodeFn
	err error
}

var (
	plans  sync.Map   // reflect.Type → *typePlan
	planMu sync.Mutex // serialises plan building
)

// appendCanonical appends the canonical JSON encoding of v to dst.
func appendCanonical(dst []byte, v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	if !rv.IsValid() {
		return append(dst, "null"...), nil
	}
	p := planFor(rv.Type())
	if p.err != nil {
		return dst, fmt.Errorf("sim: canonical: %w", p.err)
	}
	return p.enc(dst, rv)
}

// planFor returns t's plan, building it (and the plans of the types it
// contains) on first use.
func planFor(t reflect.Type) *typePlan {
	if p, ok := plans.Load(t); ok {
		return p.(*typePlan)
	}
	planMu.Lock()
	defer planMu.Unlock()
	if p, ok := plans.Load(t); ok {
		return p.(*typePlan)
	}
	building := map[reflect.Type]*typePlan{}
	p := buildPlan(t, building)
	if p.err != nil {
		// Keep only the failure: a plan built on the way may call into
		// one that failed.
		building = map[reflect.Type]*typePlan{t: p}
	}
	for bt, bp := range building {
		plans.Store(bt, bp)
	}
	return p
}

var (
	jsonMarshalerType = reflect.TypeFor[json.Marshaler]()
	textMarshalerType = reflect.TypeFor[encoding.TextMarshaler]()
)

// buildPlan builds t's plan. building holds the plans under construction,
// so a recursive type refers to its own plan through an indirection.
func buildPlan(t reflect.Type, building map[reflect.Type]*typePlan) *typePlan {
	if p, ok := building[t]; ok {
		return p
	}
	if p, ok := plans.Load(t); ok {
		return p.(*typePlan)
	}
	p := &typePlan{}
	building[t] = p
	enc, err := buildEncoder(t, building)
	if err != nil {
		p.err = fmt.Errorf("%v: %w", t, err)
		return p
	}
	p.enc = enc
	return p
}

// sub returns an encoder for a contained type, which may still be under
// construction (recursive types) and so is looked up at call time.
func sub(t reflect.Type, building map[reflect.Type]*typePlan) (encodeFn, error) {
	p := buildPlan(t, building)
	if p.err != nil {
		return nil, p.err
	}
	if p.enc != nil {
		return p.enc, nil
	}
	return func(dst []byte, v reflect.Value) ([]byte, error) { return p.enc(dst, v) }, nil
}

func buildEncoder(t reflect.Type, building map[reflect.Type]*typePlan) (encodeFn, error) {
	if t.Implements(jsonMarshalerType) || reflect.PointerTo(t).Implements(jsonMarshalerType) {
		return nil, errors.New("implements json.Marshaler; the canonical encoder cannot follow it")
	}
	if t.Implements(textMarshalerType) || reflect.PointerTo(t).Implements(textMarshalerType) {
		return nil, errors.New("implements encoding.TextMarshaler; the canonical encoder cannot follow it")
	}
	switch t.Kind() {
	case reflect.Bool:
		return func(dst []byte, v reflect.Value) ([]byte, error) {
			return strconv.AppendBool(dst, v.Bool()), nil
		}, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return func(dst []byte, v reflect.Value) ([]byte, error) {
			return strconv.AppendInt(dst, v.Int(), 10), nil
		}, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return func(dst []byte, v reflect.Value) ([]byte, error) {
			return strconv.AppendUint(dst, v.Uint(), 10), nil
		}, nil
	case reflect.Float32:
		return func(dst []byte, v reflect.Value) ([]byte, error) { return appendFloat(dst, v.Float(), 32) }, nil
	case reflect.Float64:
		return func(dst []byte, v reflect.Value) ([]byte, error) { return appendFloat(dst, v.Float(), 64) }, nil
	case reflect.String:
		return func(dst []byte, v reflect.Value) ([]byte, error) {
			return appendString(dst, v.String()), nil
		}, nil
	case reflect.Pointer:
		elem, err := sub(t.Elem(), building)
		if err != nil {
			return nil, err
		}
		return func(dst []byte, v reflect.Value) ([]byte, error) {
			if v.IsNil() {
				return append(dst, "null"...), nil
			}
			return elem(dst, v.Elem())
		}, nil
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return nil, errors.New("byte slices marshal as base64, which the canonical encoder does not write")
		}
		elem, err := sub(t.Elem(), building)
		if err != nil {
			return nil, err
		}
		return func(dst []byte, v reflect.Value) ([]byte, error) {
			if v.IsNil() {
				return append(dst, "null"...), nil
			}
			return appendElems(dst, v, elem)
		}, nil
	case reflect.Array:
		elem, err := sub(t.Elem(), building)
		if err != nil {
			return nil, err
		}
		return func(dst []byte, v reflect.Value) ([]byte, error) { return appendElems(dst, v, elem) }, nil
	case reflect.Map:
		return buildMapEncoder(t, building)
	case reflect.Struct:
		return buildStructEncoder(t, building)
	default:
		return nil, fmt.Errorf("kind %v has no canonical encoding", t.Kind())
	}
}

// appendElems writes an array or slice as a JSON array.
func appendElems(dst []byte, v reflect.Value, elem encodeFn) ([]byte, error) {
	dst = append(dst, '[')
	var err error
	for i := 0; i < v.Len(); i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = elem(dst, v.Index(i)); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// fieldPlan is one encoded struct field, in output (name) order.
type fieldPlan struct {
	index     int
	name      string
	key       []byte // the escaped name, quoted, with its colon
	omitEmpty bool
	enc       encodeFn
}

func buildStructEncoder(t reflect.Type, building map[reflect.Type]*typePlan) (encodeFn, error) {
	var fields []fieldPlan
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		tag := sf.Tag.Get("json")
		if sf.Anonymous {
			ft := sf.Type
			if ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			if !sf.IsExported() && ft.Kind() != reflect.Struct {
				continue // encoding/json ignores it too
			}
			return nil, fmt.Errorf("embedded field %s is not supported", sf.Name)
		}
		if !sf.IsExported() || tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if !isValidTag(name) {
			name = sf.Name
		}
		f := fieldPlan{index: i, name: name}
		for opts != "" {
			var opt string
			opt, opts, _ = strings.Cut(opts, ",")
			switch opt {
			case "omitempty":
				f.omitEmpty = true
			case "string", "omitzero":
				return nil, fmt.Errorf("field %s: option %q is not supported", sf.Name, opt)
			}
		}
		enc, err := sub(sf.Type, building)
		if err != nil {
			return nil, err
		}
		f.enc = enc
		f.key = append(appendString(nil, name), ':')
		fields = append(fields, f)
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].name < fields[j].name })
	for i := 1; i < len(fields); i++ {
		if fields[i].name == fields[i-1].name {
			return nil, fmt.Errorf("duplicate JSON field name %q", fields[i].name)
		}
	}
	return func(dst []byte, v reflect.Value) ([]byte, error) {
		dst = append(dst, '{')
		first := true
		var err error
		for i := range fields {
			f := &fields[i]
			fv := v.Field(f.index)
			if f.omitEmpty && isEmptyValue(fv) {
				continue
			}
			if !first {
				dst = append(dst, ',')
			}
			first = false
			dst = append(dst, f.key...)
			if dst, err = f.enc(dst, fv); err != nil {
				return dst, err
			}
		}
		return append(dst, '}'), nil
	}, nil
}

// isEmptyValue is encoding/json's omitempty test.
func isEmptyValue(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Array, reflect.Map, reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64,
		reflect.Interface, reflect.Pointer:
		return v.IsZero()
	}
	return false
}

// mapEntry is one map element on its way to the sorted output.
type mapEntry struct {
	raw, key string // the key, and the key as valid UTF-8
	val      reflect.Value
}

func buildMapEncoder(t reflect.Type, building map[reflect.Type]*typePlan) (encodeFn, error) {
	if t.Key().Kind() != reflect.String {
		return nil, fmt.Errorf("map key kind %v is not supported", t.Key().Kind())
	}
	if t.Key().Implements(textMarshalerType) || reflect.PointerTo(t.Key()).Implements(textMarshalerType) {
		return nil, errors.New("map key implements encoding.TextMarshaler; the canonical encoder cannot follow it")
	}
	elem, err := sub(t.Elem(), building)
	if err != nil {
		return nil, err
	}
	return func(dst []byte, v reflect.Value) ([]byte, error) {
		if v.IsNil() {
			return append(dst, "null"...), nil
		}
		entries := make([]mapEntry, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			raw := it.Key().String()
			entries = append(entries, mapEntry{raw: raw, key: validUTF8(raw), val: it.Value()})
		}
		// Marshal writes keys in raw order; decoding then folds keys that
		// differ only in invalid bytes onto one U+FFFD spelling, the last
		// written winning.
		sort.Slice(entries, func(i, j int) bool { return entries[i].raw < entries[j].raw })
		sort.SliceStable(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
		dst = append(dst, '{')
		first := true
		var err error
		for i, e := range entries {
			if i+1 < len(entries) && entries[i+1].key == e.key {
				continue
			}
			if !first {
				dst = append(dst, ',')
			}
			first = false
			dst = append(appendString(dst, e.key), ':')
			if dst, err = elem(dst, e.val); err != nil {
				return dst, err
			}
		}
		return append(dst, '}'), nil
	}, nil
}

// appendFloat writes f as encoding/json does: ES6 number formatting, the
// exponent form outside [1e-6, 1e21), and no padded exponent digits.
func appendFloat(dst []byte, f float64, bits int) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("sim: canonical: %w", &json.UnsupportedValueError{
			Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, bits)})
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	dst = strconv.AppendFloat(dst, f, format, -1, bits)
	if format == 'e' {
		// Clean up e-09 to e-9.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendString writes s as a JSON string the way encoding/json does with
// HTML escaping on, except that each invalid UTF-8 byte becomes a literal
// U+FFFD rather than the escape \ufffd: the canonical form is the
// re-marshalled decode, and a decoded U+FFFD is an ordinary character.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, "\ufffd"...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// validUTF8 replaces each invalid byte of s with U+FFFD, as a JSON
// decode of its Marshal encoding does.
func validUTF8(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			b.WriteString("\ufffd")
		} else {
			b.WriteString(s[i : i+size])
		}
		i += size
	}
	return b.String()
}

// isValidTag is encoding/json's test for a usable json tag name.
func isValidTag(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		switch {
		case strings.ContainsRune("!#$%&()*+-./:;<=>?@[]^_{|}~ ", c):
			// Backslash and quote chars are reserved, but otherwise any
			// punctuation chars are allowed in a tag name.
		case !unicode.IsLetter(c) && !unicode.IsDigit(c):
			return false
		}
	}
	return true
}
