// Package backup implements the paper's Client Application tier: the
// program on user machines that chunks local data, fingerprints it, asks
// the cloud back-up service which chunks are new, and uploads only those
// ("selectively upload new data that has not yet been backed up", §III.A).
package backup

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"shhc/internal/chunk"
	"shhc/internal/fingerprint"
	"shhc/internal/webfront"
)

// Config configures a backup client.
type Config struct {
	// FrontURL is the web front-end base URL, e.g. "http://10.0.0.1:8080".
	FrontURL string
	// ChunkSize selects fixed-size chunking when > 0 (paper default 4 KiB
	// or 8 KiB); 0 selects content-defined chunking.
	ChunkSize int
	// PlanBatch is the number of fingerprints sent per plan request —
	// the client-side buffer of §IV ("each client holds a buffer to
	// aggregate hash queries and send them as a batch"). Default 2048.
	PlanBatch int
}

// requestTimeout bounds each plan, upload and restore request, so that a
// run against a front that stopped answering ends. The caller's context
// bounds the run as a whole.
const requestTimeout = 60 * time.Second

func (c *Config) fill() error {
	if c.FrontURL == "" {
		return fmt.Errorf("backup: Config.FrontURL is required")
	}
	if c.PlanBatch <= 0 {
		c.PlanBatch = 2048
	}
	return nil
}

// Manifest records the ordered chunk fingerprints of one backup, enough to
// restore the stream later.
type Manifest struct {
	Name   string   `json:"name"`
	Chunks []string `json:"chunks"` // hex fingerprints in stream order
	Bytes  int64    `json:"bytes"`
}

// Report summarizes one backup run: how much deduplication saved.
type Report struct {
	Chunks        int
	NewChunks     int
	DupChunks     int
	BytesTotal    int64
	BytesUploaded int64
	Manifest      Manifest
}

// DedupRatio is the fraction of chunks that were already stored.
func (r Report) DedupRatio() float64 {
	if r.Chunks == 0 {
		return 0
	}
	return float64(r.DupChunks) / float64(r.Chunks)
}

func (r Report) String() string {
	return fmt.Sprintf("chunks=%d new=%d dup=%d (%.1f%% dedup) bytes=%d uploaded=%d",
		r.Chunks, r.NewChunks, r.DupChunks, r.DedupRatio()*100, r.BytesTotal, r.BytesUploaded)
}

// Client talks to the web front-end.
type Client struct {
	cfg  Config
	http *http.Client
}

// New creates a backup client.
func New(cfg Config) (*Client, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return &Client{cfg: cfg, http: &http.Client{Timeout: requestTimeout}}, nil
}

func (c *Client) newChunker(r io.Reader) (chunk.Chunker, error) {
	if c.cfg.ChunkSize > 0 {
		return chunk.NewFixed(r, c.cfg.ChunkSize)
	}
	return chunk.NewGear(r, chunk.GearConfig{})
}

// Backup deduplicates and uploads one stream under the given name.
// Cancelling ctx abandons the run between chunks and aborts in-flight
// plan and upload requests; the partial upload is harmless (chunks are
// content-addressed and idempotent; a re-run skips what already landed).
func (c *Client) Backup(ctx context.Context, name string, r io.Reader) (Report, error) {
	chunker, err := c.newChunker(r)
	if err != nil {
		return Report{}, err
	}
	report := Report{Manifest: Manifest{Name: name}}

	batch := make([]chunk.Chunk, 0, c.cfg.PlanBatch)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := c.processBatch(ctx, batch, &report); err != nil {
			return err
		}
		batch = batch[:0]
		return nil
	}
	for {
		if err := ctx.Err(); err != nil {
			return Report{}, fmt.Errorf("backup %s: %w", name, err)
		}
		ch, err := chunker.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Report{}, fmt.Errorf("backup %s: %w", name, err)
		}
		report.Chunks++
		report.BytesTotal += int64(len(ch.Data))
		report.Manifest.Chunks = append(report.Manifest.Chunks, ch.FP.String())
		batch = append(batch, ch)
		if len(batch) >= c.cfg.PlanBatch {
			if err := flush(); err != nil {
				return Report{}, err
			}
		}
	}
	if err := flush(); err != nil {
		return Report{}, err
	}
	report.Manifest.Bytes = report.BytesTotal
	return report, nil
}

// BackupFile backs up one file by path.
func (c *Client) BackupFile(ctx context.Context, path string) (Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return Report{}, fmt.Errorf("backup: open %s: %w", path, err)
	}
	defer f.Close()
	return c.Backup(ctx, path, f)
}

// processBatch asks for an upload plan and uploads the missing chunks.
func (c *Client) processBatch(ctx context.Context, batch []chunk.Chunk, report *Report) error {
	req := webfront.PlanRequest{Fingerprints: make([]string, len(batch))}
	for i, ch := range batch {
		req.Fingerprints[i] = ch.FP.String()
	}
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("backup: marshal plan: %w", err)
	}
	planReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.FrontURL+"/v1/plan", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("backup: build plan request: %w", err)
	}
	planReq.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(planReq)
	if err != nil {
		return fmt.Errorf("backup: plan request: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("backup: plan request: %s", httpError(resp))
	}
	var plan webfront.PlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&plan); err != nil {
		return fmt.Errorf("backup: decode plan: %w", err)
	}

	missing := make(map[int]bool, len(plan.Missing))
	for _, idx := range plan.Missing {
		if idx < 0 || idx >= len(batch) {
			return fmt.Errorf("backup: plan references chunk %d outside batch of %d", idx, len(batch))
		}
		missing[idx] = true
	}
	for idx := range batch {
		if !missing[idx] {
			report.DupChunks++
			continue
		}
		if err := c.upload(ctx, batch[idx]); err != nil {
			return err
		}
		report.NewChunks++
		report.BytesUploaded += int64(len(batch[idx].Data))
	}
	return nil
}

func (c *Client) upload(ctx context.Context, ch chunk.Chunk) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.FrontURL+"/v1/upload", bytes.NewReader(ch.Data))
	if err != nil {
		return fmt.Errorf("backup: build upload: %w", err)
	}
	req.Header.Set(webfront.FingerprintHeader, ch.FP.String())
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("backup: upload %s: %w", ch.FP.Short(), err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("backup: upload %s: %s", ch.FP.Short(), httpError(resp))
	}
	return nil
}

// Restore streams a manifest's chunks from the service into w.
// Cancelling ctx stops the restore between chunks and aborts the
// in-flight fetch.
func (c *Client) Restore(ctx context.Context, m Manifest, w io.Writer) error {
	for i, hexFP := range m.Chunks {
		fp, err := fingerprint.Parse(hexFP)
		if err != nil {
			return fmt.Errorf("backup: manifest chunk %d: %w", i, err)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.FrontURL+"/v1/chunk/"+fp.String(), nil)
		if err != nil {
			return fmt.Errorf("backup: build fetch chunk %d: %w", i, err)
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return fmt.Errorf("backup: fetch chunk %d: %w", i, err)
		}
		if resp.StatusCode != http.StatusOK {
			msg := httpError(resp)
			resp.Body.Close()
			return fmt.Errorf("backup: fetch chunk %d (%s): %s", i, fp.Short(), msg)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("backup: read chunk %d: %w", i, err)
		}
		// Verify integrity end to end.
		if fingerprint.FromData(data) != fp {
			return fmt.Errorf("backup: chunk %d content does not match fingerprint %s", i, fp.Short())
		}
		if _, err := w.Write(data); err != nil {
			return fmt.Errorf("backup: write restored data: %w", err)
		}
	}
	return nil
}

// SaveManifest writes a manifest as JSON.
func SaveManifest(m Manifest, path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("backup: marshal manifest: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("backup: write manifest: %w", err)
	}
	return nil
}

// LoadManifest reads a manifest written by SaveManifest.
func LoadManifest(path string) (Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, fmt.Errorf("backup: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("backup: parse manifest: %w", err)
	}
	return m, nil
}

func httpError(resp *http.Response) string {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
}
