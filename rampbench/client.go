package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"
)

// maxConns bounds the load generator's connections: the host has two
// CPUs, and more client connections than that would measure the client.
const maxConns = 2

// requestID is sent on every request. rampd echoes it in stream meta
// events, so a fixed value keeps replayed responses byte-identical.
const requestID = "rampbench"

// target is where the load goes: a rampd child over loopback HTTP, or an
// in-process server.Server handler for the traced replay. Workloads drive
// both through the same methods.
type target struct {
	base string
	hc   *http.Client
}

func newHTTPTarget(base string) *target {
	return &target{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}}
}

// newHandlerTarget serves requests by calling h directly, with no socket.
func newHandlerTarget(h http.Handler) *target {
	return &target{base: "http://in-process", hc: &http.Client{Transport: handlerTransport{h}}}
}

type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body == nil {
		req.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

func (t *target) close() { t.hc.CloseIdleConnections() }

// do sends one request; body, when non-nil, is sent as JSON.
func (t *target) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, t.base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Request-ID", requestID)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return t.hc.Do(req)
}

// fetch sends one request and reads the whole body, failing on any status
// other than want.
func (t *target) fetch(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	resp, err := t.do(ctx, method, path, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return b, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, b)
	}
	return b, nil
}

// postJSON marshals v and POSTs it.
func (t *target) postJSON(ctx context.Context, path string, v any, want int) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return t.fetch(ctx, http.MethodPost, path, body, want)
}
