package webfront

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"shhc/internal/core"
	"shhc/internal/fingerprint"
)

// referenceDecode is the plan decoder handlePlan had before the scanner:
// json.Decoder.Decode into a PlanRequest, then fingerprint.Parse per entry.
// It is kept apart from decodePlanSlow on purpose — the reference must not
// move when the code under test does.
func referenceDecode(body []byte) ([]fingerprint.Fingerprint, string) {
	var req PlanRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, "bad request body: " + err.Error()
	}
	fps := make([]fingerprint.Fingerprint, 0, len(req.Fingerprints))
	for i, hexFP := range req.Fingerprints {
		fp, err := fingerprint.Parse(hexFP)
		if err != nil {
			return nil, fmt.Sprintf("fingerprint %d: %v", i, err)
		}
		fps = append(fps, fp)
	}
	return fps, ""
}

func hexFP(i uint64) string { return fingerprint.FromUint64(i).String() }

// canonicalPlan is the body a client's encoder emits for fingerprints
// from..from+n-1.
func canonicalPlan(from, n int) []byte {
	fps := make([]string, n)
	for i := range fps {
		fps[i] = hexFP(uint64(from + i))
	}
	body, _ := json.Marshal(PlanRequest{Fingerprints: fps})
	return body
}

// scannerSeeds are bodies of the canonical grammar, which scanPlan decodes
// itself, with how many fingerprints each holds.
var scannerSeeds = []struct {
	body string
	n    int
}{
	{`{"fingerprints":[]}`, 0},
	{`{"fingerprints":["` + hexFP(1) + `"]}`, 1},
	{`{"fingerprints":["` + hexFP(1) + `","` + hexFP(2) + `"]}`, 2},
	{" \t\r\n{ \"fingerprints\" : [ \"" + hexFP(1) + "\" ,\n\t\"" + hexFP(2) + "\" ] } \n", 2},
	{`{ "fingerprints" : [ ] }`, 0},
	{`{"fingerprints":["` + strings.ToUpper(hexFP(3)) + `"]}`, 1},
	// Like json.Decoder.Decode, the scanner stops at the object's end.
	{`{"fingerprints":["` + hexFP(1) + `"]}trailing garbage`, 1},
	{`{"fingerprints":["` + hexFP(1) + `"]}{"fingerprints":["zz"]}`, 1},
}

// fallbackSeeds are bodies scanPlan must hand to encoding/json: valid plans
// of another shape, and every kind of malformed one.
var fallbackSeeds = []string{
	`{"Fingerprints":["` + hexFP(1) + `"]}`,
	`{"FINGERPRINTS":["` + hexFP(1) + `"]}`,
	`{"fingerprints":["` + hexFP(1) + `"],"fingerprints":["` + hexFP(2) + `"]}`,
	`{"fingerprints":["` + hexFP(1) + `"],"other":[1,2,{"x":null}]}`,
	`{"other":1,"fingerprints":["` + hexFP(1) + `"]}`,
	`{"fingerprints":["\u0061` + hexFP(1)[1:] + `"]}`,
	`{"fingerprints":["\u0061\u0061` + hexFP(1)[2:] + `"]}`,
	`{"fingerprints":["` + hexFP(1)[:34] + `\u0061"]}`,
	`{"fingerprints":["` + hexFP(1)[:39] + `\""]}`,
	`{"fingerprints":null}`,
	`{"fingerprints":[null]}`,
	`null`,
	`{}`,
	``,
	`{"fingerprints":["` + hexFP(1)[:39] + `"]}`,
	`{"fingerprints":["` + hexFP(1) + `0"]}`,
	`{"fingerprints":["` + hexFP(1)[:39] + `g"]}`,
	`{"fingerprints":["` + hexFP(1) + `","zz"]}`,
	`{"fingerprints":["` + hexFP(1) + `",]}`,
	`{"fingerprints":["` + hexFP(1) + `"`,
	`{"fingerprints":["` + hexFP(1) + `"]`,
	`{"fingerprints":["` + hexFP(1) + `"] `,
	`{"fingerprints":["` + hexFP(1) + `" "` + hexFP(2) + `"]}`,
	`{"fingerprints":[` + hexFP(1) + `]}`,
	`{"fingerprints":"` + hexFP(1) + `"}`,
	`{"fingerprints":[1]}`,
	"{\"fingerprints\":[\"" + hexFP(1)[:39] + "\xff\"]}",
	`{not json`,
	`[]`,
}

// FuzzPlanDecode: for arbitrary bytes, decodePlan and the decoder it
// replaced agree on accept or reject, on the message (which carries the
// failing index), and on every decoded fingerprint.
func FuzzPlanDecode(f *testing.F) {
	for _, s := range scannerSeeds {
		f.Add([]byte(s.body))
	}
	for _, s := range fallbackSeeds {
		f.Add([]byte(s))
	}
	f.Add(canonicalPlan(0, 64))
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantMsg := referenceDecode(body)
		got, perr := decodePlan(body, nil, 1<<30)
		if perr != nil {
			if wantMsg == "" {
				t.Fatalf("rejected (%d %q) a body the reference accepts: %q", perr.status, perr.msg, body)
			}
			if perr.status != http.StatusBadRequest || perr.msg != wantMsg {
				t.Fatalf("rejected with %d %q, reference says %q: %q", perr.status, perr.msg, wantMsg, body)
			}
			return
		}
		if wantMsg != "" {
			t.Fatalf("accepted a body the reference rejects with %q: %q", wantMsg, body)
		}
		if len(got) != len(want) {
			t.Fatalf("decoded %d fingerprints, reference %d: %q", len(got), len(want), body)
		}
		for i := range got {
			if got[i].FP != want[i] {
				t.Fatalf("fingerprint %d = %s, reference %s: %q", i, got[i].FP, want[i], body)
			}
		}
	})
}

// TestScanPlanTakesCanonicalBodies pins which decoder runs: the scanner
// must take what clients send, and leave everything else to encoding/json.
func TestScanPlanTakesCanonicalBodies(t *testing.T) {
	dst := make([]core.Pair, 64)
	for _, s := range scannerSeeds {
		if n, res := scanPlan([]byte(s.body), dst, len(dst)); res != scanOK || n != s.n {
			t.Errorf("scanPlan(%q) = %d, %v; want %d fingerprints from the scanner", s.body, n, res, s.n)
		}
	}
	for _, s := range fallbackSeeds {
		if _, res := scanPlan([]byte(s), dst, len(dst)); res != scanFallback {
			t.Errorf("scanPlan(%q) = %v; want fallback", s, res)
		}
	}
}

func TestDecodePlanLimit(t *testing.T) {
	body := canonicalPlan(0, 5)
	if pairs, perr := decodePlan(body, nil, 5); perr != nil || len(pairs) != 5 {
		t.Fatalf("5 fingerprints under limit 5: %d pairs, %v", len(pairs), perr)
	}
	for _, body := range [][]byte{
		canonicalPlan(0, 6),
		// Past the limit the scanner stops: what follows is never looked at.
		append(canonicalPlan(0, 6)[:6*43+16], "not json"...),
		// The slow path counts too.
		bytes.Replace(canonicalPlan(0, 6), []byte("fingerprints"), []byte("Fingerprints"), 1),
	} {
		if _, perr := decodePlan(body, nil, 5); perr == nil || perr.status != http.StatusRequestEntityTooLarge {
			t.Fatalf("6 fingerprints under limit 5: %v; want 413 (%q)", perr, body)
		}
	}
}

func postRaw(t *testing.T, url string, body io.Reader) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/plan", "application/json", body)
	if err != nil {
		t.Fatalf("POST /v1/plan: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(data)
}

func TestPlanRejectsOversizedBody(t *testing.T) {
	url := newTestServerWithLimits(t, 4, 0)
	limit := 4*planBytesPerFP + planBytesSlack
	pad := func(n int) string { return `{"fingerprints":[` + strings.Repeat(" ", n) + `]}` }

	// Declared: refused on Content-Length alone.
	if status, msg := postRaw(t, url, strings.NewReader(pad(limit))); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("declared %d-byte body: status %d %q, want 413", limit+19, status, msg)
	}
	// Undeclared (chunked): refused once the bound is read.
	if status, msg := postRaw(t, url, io.MultiReader(strings.NewReader(pad(limit)))); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked oversized body: status %d %q, want 413", status, msg)
	}
	// At the bound it is still a plan.
	if status, msg := postRaw(t, url, strings.NewReader(pad(limit-19))); status != http.StatusOK || msg != "{\"missing\":[]}\n" {
		t.Fatalf("body at the bound: status %d %q, want 200", status, msg)
	}
	// The bound holds whatever buffer the pool hands out: one roomier than
	// the limit never fills, and the body must be refused all the same.
	sc := &planScratch{body: make([]byte, 0, 4*limit)}
	if err := sc.readBody(strings.NewReader(pad(limit)), -1, int64(limit)); err != errPlanBodyTooLarge {
		t.Fatalf("oversized chunked body into a roomy pooled buffer: %v, want errPlanBodyTooLarge", err)
	}
}

func TestPlanWithoutContentLength(t *testing.T) {
	_, ts, _ := newTestServer(t)
	// A reader that is not a *bytes.Reader and friends makes net/http send
	// the body chunked, with no Content-Length.
	for _, n := range []int{0, 1, 300, 3000} {
		status, msg := postRaw(t, ts.URL, io.MultiReader(bytes.NewReader(canonicalPlan(100000*n, n))))
		var plan PlanResponse
		if err := json.Unmarshal([]byte(msg), &plan); status != http.StatusOK || err != nil || len(plan.Missing) != n {
			t.Fatalf("chunked plan of %d: status %d, %d missing (%v): %.80q", n, status, len(plan.Missing), err, msg)
		}
	}
}

// TestPlanScratchNotShared: back-to-back plans of different sizes on one
// keep-alive connection reuse the pooled scratch; neither may see the
// other's pairs or missing indices.
func TestPlanScratchNotShared(t *testing.T) {
	_, ts, _ := newTestServer(t)
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	post := func(body []byte) []int {
		t.Helper()
		resp, err := client.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		var plan PlanResponse
		if err := json.NewDecoder(resp.Body).Decode(&plan); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("plan: status %d, %v", resp.StatusCode, err)
		}
		return plan.Missing
	}
	ascending := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	big, small := canonicalPlan(0, 500), canonicalPlan(1000, 3)
	for round := 0; round < 3; round++ {
		// First sight: all missing, whatever the previous plan's size was.
		// Second sight: none. A stale pair or index would break either.
		wantBig, wantSmall := ascending(500), ascending(3)
		if round > 0 {
			wantBig, wantSmall = []int{}, []int{}
		}
		if got := post(big); fmt.Sprint(got) != fmt.Sprint(wantBig) {
			t.Fatalf("round %d: big plan missing %v", round, got)
		}
		if got := post(small); fmt.Sprint(got) != fmt.Sprint(wantSmall) {
			t.Fatalf("round %d: small plan missing %v after a big one", round, got)
		}
	}
	// A plan that shares a prefix with a longer predecessor: only its own
	// fingerprints are asked about.
	if got := post(canonicalPlan(2000, 400)); len(got) != 400 {
		t.Fatalf("fresh 400-plan: %d missing", len(got))
	}
	if got := post(canonicalPlan(2000, 2)); len(got) != 0 {
		t.Fatalf("2-plan repeating a 400-plan's head: missing %v", got)
	}
	if got := post(canonicalPlan(2398, 4)); fmt.Sprint(got) != "[2 3]" {
		t.Fatalf("4-plan straddling a 400-plan's tail: missing %v, want [2 3]", got)
	}
}

// nopResponse is an http.ResponseWriter that keeps nothing, so the alloc
// test counts the handler, not a recorder's buffers.
type nopResponse struct{ h http.Header }

func (w *nopResponse) Header() http.Header         { return w.h }
func (w *nopResponse) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopResponse) WriteHeader(int)             {}

// TestAllocHandlePlan: a cache-hit plan through handlePlan and an
// in-process two-node cluster allocates a constant number of objects —
// request bookkeeping, a goroutine and a result slice per node — whatever
// the plan's size. sync.Pool drops items at random under -race, so the bound
// is loose; what it must not do is grow with the plan.
func TestAllocHandlePlan(t *testing.T) {
	srv, _, _ := newTestServerCached(t, 1<<13)
	run := func(n int) float64 {
		body := canonicalPlan(0, n)
		rd := bytes.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/v1/plan", rd)
		w := &nopResponse{h: http.Header{}}
		serve := func() {
			rd.Reset(body)
			req.Body = io.NopCloser(rd)
			srv.handlePlan(w, req)
		}
		serve() // first sight inserts; every later one is all cache hits
		return testing.AllocsPerRun(50, serve)
	}
	small, large := run(128), run(2048)
	t.Logf("allocs per plan: %v at 128 fingerprints, %v at 2048", small, large)
	if large > 40 {
		t.Fatalf("a 2048-fingerprint plan allocates %v objects; want a small constant", large)
	}
	if large > small+8 {
		t.Fatalf("allocations grow with the plan: %v at 128 fingerprints, %v at 2048", small, large)
	}
}
