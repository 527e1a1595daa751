package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// PlanPath is the peer-API route prefix for plan entries; the entry's
// fingerprint is appended as the final path element. locmapd's server
// mounts it:
//
//	GET    /v1/cluster/plan/{fingerprint}  -> 200 PlanDoc | 404
//	PUT    /v1/cluster/plan/{fingerprint}  <- PlanDoc, -> 200 PutResult
//	DELETE /v1/cluster/plan/{fingerprint}  -> 204
const PlanPath = "/v1/cluster/plan/"

// PlanDoc is the wire form of one plan-cache entry. Payload is raw plan
// bytes (base64 in JSON, per encoding/json convention). On PUT,
// Upgrade selects the tier-lifecycle write (plancache.Cache.Upgrade)
// instead of a plain refresh.
type PlanDoc struct {
	Payload []byte `json:"payload"`
	Tier    string `json:"tier,omitempty"`
	Upgrade bool   `json:"upgrade,omitempty"`
}

// PutResult reports what a peer write did.
type PutResult struct {
	// Inserted is true when the write created the key; a PUT with
	// Upgrade set reports !present through the same field.
	Inserted bool `json:"inserted"`
}

// Client reads and writes one peer's plan cache over HTTP. Every
// operation is bounded by the configured timeout. A read tells a miss
// from a peer failure; a write is best-effort — a failure is a no-op
// that the optional OnError callback observes (locmapd counts it as a
// peer error). Cluster peers are an optimization, never a dependency.
type Client struct {
	base    string
	hc      *http.Client
	timeout time.Duration

	// OnError, if set, is called with the operation name ("put") and
	// the underlying error whenever a write is swallowed into a no-op.
	OnError func(op string, err error)
}

// NewClient builds a client for the peer at base (scheme://host:port,
// no trailing slash needed). timeout bounds each operation end to end
// (<= 0 selects 2s, a ceiling chosen so a dead peer delays a request
// far less than recomputing a plan would).
func NewClient(base string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &Client{
		base:    base,
		hc:      &http.Client{Timeout: timeout},
		timeout: timeout,
	}
}

// Base returns the peer's base URL.
func (c *Client) Base() string { return c.base }

func (c *Client) planURL(key string) string {
	return c.base + PlanPath + url.PathEscape(key)
}

// GetE fetches the entry stored under key on the peer, distinguishing
// a genuine miss (nil error, ok false) from a peer failure (non-nil
// error) — locmapd uses the distinction to decide between proxying to
// the owner and degrading to local compute.
func (c *Client) GetE(ctx context.Context, key string) (PlanDoc, bool, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.planURL(key), nil)
	if err != nil {
		return PlanDoc{}, false, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return PlanDoc{}, false, err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		var doc PlanDoc
		if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&doc); err != nil {
			return PlanDoc{}, false, fmt.Errorf("cluster: decode plan doc: %w", err)
		}
		return doc, true, nil
	case http.StatusNotFound:
		return PlanDoc{}, false, nil
	default:
		return PlanDoc{}, false, fmt.Errorf("cluster: peer returned %s", resp.Status)
	}
}

// Put stores doc under key on the peer, reporting whether a new key
// was inserted. A peer failure is passed to OnError("put") and
// reported as no insertion.
func (c *Client) Put(key string, doc PlanDoc) bool {
	res, err := c.put(key, doc)
	if err != nil {
		if c.OnError != nil {
			c.OnError("put", err)
		}
		return false
	}
	return res.Inserted
}

func (c *Client) put(key string, doc PlanDoc) (PutResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	body, err := json.Marshal(doc)
	if err != nil {
		return PutResult{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.planURL(key), bytes.NewReader(body))
	if err != nil {
		return PutResult{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return PutResult{}, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return PutResult{}, fmt.Errorf("cluster: peer returned %s", resp.Status)
	}
	var res PutResult
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&res); err != nil {
		return PutResult{}, fmt.Errorf("cluster: decode put result: %w", err)
	}
	return res, nil
}

// drain discards the rest of a response body and closes it so the
// underlying connection is reusable.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
