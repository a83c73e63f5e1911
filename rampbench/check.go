package main

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"

	"github.com/ramp-sim/ramp/internal/core"
	"github.com/ramp-sim/ramp/internal/report"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/server"
	"github.com/ramp-sim/ramp/internal/sim"
	"github.com/ramp-sim/ramp/internal/workload"
)

// studyReply is the part of a /v1/study (or batch job) response the
// checks read; the study document stays raw so it can be compared both
// decoded and byte for byte.
type studyReply struct {
	Meta  server.StudyMeta `json:"meta"`
	Study json.RawMessage  `json:"study"`
}

// studyInputs resolves a wire request the way rampd does with its default
// flags: the paper's configuration, the requested budget and fidelity,
// the canonical mechanism set, and every Table 4 technology.
func studyInputs(req server.StudyRequest) (sim.Config, []workload.Profile, []scaling.Technology, error) {
	cfg := sim.DefaultConfig()
	cfg.Instructions = req.Instructions
	fd, err := sim.ParseFidelityMode(req.Fidelity)
	if err != nil {
		return cfg, nil, nil, err
	}
	cfg.Fidelity = fd
	if cfg.Mechanisms, err = core.CanonicalMechanismNames(req.Mechanisms); err != nil {
		return cfg, nil, nil, err
	}
	profiles, err := workload.DefaultRegistry().Resolve(req.Apps)
	if err != nil {
		return cfg, nil, nil, err
	}
	return cfg, profiles, scaling.Generations(), nil
}

// referenceStudy computes a request's study in process, through the
// library rather than the server.
func referenceStudy(ctx context.Context, req server.StudyRequest) (*sim.StudyResult, error) {
	cfg, profiles, techs, err := studyInputs(req)
	if err != nil {
		return nil, err
	}
	return sim.RunStudyContext(ctx, cfg, profiles, techs, sim.StudyOptions{})
}

// sameDocument reports whether a served study document equals the
// library's document for the same request after both are decoded.
func sameDocument(served json.RawMessage, want *sim.StudyResult) (bool, error) {
	var got, ref report.Document
	if err := json.Unmarshal(served, &got); err != nil {
		return false, fmt.Errorf("decode served study: %w", err)
	}
	b, err := json.Marshal(report.BuildDocument(want))
	if err != nil {
		return false, err
	}
	if err := json.Unmarshal(b, &ref); err != nil {
		return false, err
	}
	return reflect.DeepEqual(got, ref), nil
}

// deferredCheck is one served answer kept for comparison with the library
// once the measured rounds are over, so the reference computation never
// competes with rampd for the CPU while it is being timed.
type deferredCheck struct {
	req   server.StudyRequest
	study json.RawMessage
}

// verifyDeferred recomputes every kept answer in process and counts each
// one that differs as a wrong answer.
func verifyDeferred(ctx context.Context, checks []deferredCheck, rec *recorder) error {
	for _, c := range checks {
		ref, err := referenceStudy(ctx, c.req)
		if err != nil {
			return fmt.Errorf("reference study: %w", err)
		}
		if ok, err := sameDocument(c.study, ref); err != nil || !ok {
			rec.wrongAnswer("study %v %d %s %v differs from the library (%v)",
				c.req.Apps, c.req.Instructions, c.req.Fidelity, c.req.Mechanisms, err)
		}
	}
	return nil
}
