package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"ropuf/internal/obs"
)

// client is the benchmark's HTTP client: at most conns keep-alive
// connections to one server, and (in traced runs) one client span per
// request whose identity travels as a traceparent header, so the server's
// spans join the same trace.
type client struct {
	base   string
	http   *http.Client
	tracer *obs.Tracer // nil = untraced
}

func newClient(base string, conns int, tracer *obs.Tracer) *client {
	return &client{
		base: base,
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		tracer: tracer,
	}
}

// close drops the idle connections so the server sees them go.
func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request inside a "client.<route>" span and decodes a 200
// JSON answer into out. Any other status is an error carrying the body.
func (c *client) do(ctx context.Context, route, method, path, contentType string, body []byte, out any) error {
	ctx, span := c.tracer.Start(ctx, "client."+route)
	defer span.End()
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	obs.Inject(ctx, req.Header)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decoding: %w", method, path, err)
		}
	}
	return nil
}

func (c *client) postJSON(ctx context.Context, route, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.do(ctx, route, http.MethodPost, path, "application/json", body, out)
}

func (c *client) get(ctx context.Context, route, path string, out any) error {
	return c.do(ctx, route, http.MethodGet, path, "", nil, out)
}
