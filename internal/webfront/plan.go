package webfront

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"shhc/internal/core"
	"shhc/internal/fingerprint"
)

// The /v1/plan request path: body bytes → []core.Pair → cluster → answer
// bytes, in working memory that is pooled per request, so a plan costs a
// constant number of allocations whatever its size.
//
// Nearly every plan is the compact JSON a client's encoder emits,
//
//	{"fingerprints":["<40 hex>","<40 hex>",...]}
//
// and scanPlan reads exactly that grammar (plus insignificant whitespace
// between tokens) straight out of the body buffer, hex-decoding each
// fingerprint in place. Any body that is not of that shape — another key, a
// duplicate or differently-cased key, an escape inside a string, null, a
// fingerprint of the wrong length or alphabet — is decoded again from the
// same buffer by decodePlanSlow, which is encoding/json + fingerprint.Parse,
// so what is accepted and how a bad plan is reported do not depend on which
// decoder ran. The choice is made from the input alone.

const (
	// planBytesPerFP and planBytesSlack bound a plan body by what
	// maxPlanSize fingerprints can occupy: 40 hex digits, two quotes and a
	// comma are 43 bytes; 64 leaves room for the newline and indentation a
	// pretty-printer adds per element, the slack for the object around them.
	planBytesPerFP = 64
	planBytesSlack = 4096
	// maxPooledBody bounds the scratch the pool keeps by its body buffer
	// (pairs and answer are no bigger than the body they came from): one
	// huge plan must not pin its megabytes forever.
	maxPooledBody = 1 << 20
)

// planScratch is one plan request's working memory. It belongs to the
// handler between getPlanScratch and putPlanScratch; nothing reachable from
// it may be kept past the request, which is the reason Index implementations
// must not retain the pairs they are handed.
type planScratch struct {
	body  []byte      // the request body, as read
	pairs []core.Pair // the decoded plan
	out   []byte      // the response body
}

var planScratchPool = sync.Pool{New: func() any { return new(planScratch) }}

//shhc:returns-buf
func getPlanScratch() *planScratch { return planScratchPool.Get().(*planScratch) }

//shhc:takes-buf sc
func putPlanScratch(sc *planScratch) {
	if cap(sc.body) > maxPooledBody {
		*sc = planScratch{}
	}
	planScratchPool.Put(sc)
}

var errPlanBodyTooLarge = errors.New("plan body too large")

// readBody reads the whole request body into sc.body. declared is the
// request's Content-Length, -1 when the client did not say (chunked). A body
// declared or found to be longer than limit is errPlanBodyTooLarge; a
// declared one is refused before a byte of it is read.
func (sc *planScratch) readBody(body io.Reader, declared, limit int64) error {
	if declared > limit {
		return errPlanBodyTooLarge
	}
	buf := sc.body[:0]
	// One spare byte lets the read that finds EOF fit without growing.
	if int64(cap(buf)) <= declared {
		buf = make([]byte, 0, declared+1)
	}
	for {
		if len(buf) == cap(buf) {
			if int64(len(buf)) > limit {
				sc.body = buf
				return errPlanBodyTooLarge
			}
			grown := make([]byte, len(buf), min(max(2*int64(cap(buf)), 4096), limit+1))
			copy(grown, buf)
			buf = grown
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			sc.body = buf
			if err != io.EOF {
				return err
			}
			// A pooled buffer roomier than limit never fills, so the
			// check above never ran.
			if int64(len(buf)) > limit {
				return errPlanBodyTooLarge
			}
			return nil
		}
	}
}

// planError is a refused plan: the status and message of the response.
type planError struct {
	status int
	msg    string
}

var errTooManyFingerprints = &planError{http.StatusRequestEntityTooLarge, "too many fingerprints"}

// decodePlan decodes a /v1/plan body into dst[:0], growing it if needed, and
// returns the pairs with their fingerprints set. A plan of more than limit
// fingerprints is refused.
func decodePlan(body []byte, dst []core.Pair, limit int) ([]core.Pair, *planError) {
	// A fingerprint and its separator are at least 43 bytes, which bounds
	// the plan the body can hold; one past the limit is enough to refuse it.
	if need := min(len(body)/43+1, limit); cap(dst) < need {
		dst = make([]core.Pair, need)
	}
	switch n, res := scanPlan(body, dst[:cap(dst)], limit); res {
	case scanOK:
		return dst[:n], nil
	case scanTooMany:
		return dst[:0], errTooManyFingerprints
	}
	return decodePlanSlow(body, dst[:0], limit)
}

type scanResult int

const (
	scanFallback scanResult = iota // not the canonical shape: ask encoding/json
	scanOK
	scanTooMany // canonical so far, and the fingerprint past the limit was reached
)

// scanPlan decodes a canonical plan body into dst, which must hold
// min(limit, every fingerprint body could contain), and returns how many
// fingerprints it decoded. It accepts only bodies encoding/json would
// decode to exactly the same fingerprints, and — like json.Decoder.Decode —
// ignores whatever follows the object.
func scanPlan(b []byte, dst []core.Pair, limit int) (int, scanResult) {
	i := skipSpace(b, 0)
	for _, tok := range [...]string{`{`, `"fingerprints"`, `:`, `[`} {
		if len(b)-i < len(tok) || string(b[i:i+len(tok)]) != tok {
			return 0, scanFallback
		}
		i = skipSpace(b, i+len(tok))
	}
	n := 0
	if i < len(b) && b[i] == ']' {
		i++
	} else {
		for {
			// "<40 hex>" and at least one byte after it.
			if len(b)-i < 43 || b[i] != '"' || b[i+41] != '"' {
				return 0, scanFallback
			}
			if n == limit {
				// Judge the element before counting it: a malformed one
				// is the slow path's to report.
				if _, ok := decodeHex(b[i+1 : i+41]); !ok {
					return 0, scanFallback
				}
				return 0, scanTooMany
			}
			fp, ok := decodeHex(b[i+1 : i+41])
			if !ok {
				return 0, scanFallback
			}
			dst[n].FP = fp
			n++
			i = skipSpace(b, i+42)
			if i == len(b) {
				return 0, scanFallback
			}
			if b[i] == ']' {
				i++
				break
			}
			if b[i] != ',' {
				return 0, scanFallback
			}
			i = skipSpace(b, i+1)
		}
	}
	if i = skipSpace(b, i); i == len(b) || b[i] != '}' {
		return 0, scanFallback
	}
	return n, scanOK
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// hexNibble maps an ASCII hex digit of either case to its value and every
// other byte to 0xff.
var hexNibble = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for c := byte('0'); c <= '9'; c++ {
		t[c] = c - '0'
	}
	for c := byte('a'); c <= 'f'; c++ {
		t[c] = c - 'a' + 10
		t[c-'a'+'A'] = c - 'a' + 10
	}
	return t
}()

// decodeHex decodes the 40 hex digits of src, straight into the
// fingerprint's three words, and reports whether all of them were hex
// digits.
func decodeHex(src []byte) (fingerprint.Fingerprint, bool) {
	src = src[:2*fingerprint.Size]
	var (
		a, b uint64
		c    uint32
		bad  byte
	)
	for j := 0; j < 16; j++ {
		x, y := hexNibble[src[j]], hexNibble[src[16+j]]
		bad |= x | y
		a, b = a<<4|uint64(x), b<<4|uint64(y)
	}
	for _, ch := range src[32:] {
		x := hexNibble[ch]
		bad |= x
		c = c<<4 | uint32(x)
	}
	return fingerprint.FromWords(a, b, c), bad < 16
}

// decodePlanSlow is the general decoder: everything encoding/json accepts
// for a PlanRequest, with its errors.
func decodePlanSlow(body []byte, dst []core.Pair, limit int) ([]core.Pair, *planError) {
	var req PlanRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return dst, &planError{http.StatusBadRequest, "bad request body: " + err.Error()}
	}
	if len(req.Fingerprints) > limit {
		return dst, errTooManyFingerprints
	}
	for i, hexFP := range req.Fingerprints {
		fp, err := fingerprint.Parse(hexFP)
		if err != nil {
			return dst, &planError{http.StatusBadRequest, fmt.Sprintf("fingerprint %d: %v", i, err)}
		}
		dst = append(dst, core.Pair{FP: fp})
	}
	return dst, nil
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	sc := getPlanScratch()
	defer putPlanScratch(sc)
	maxBody := int64(s.cfg.maxPlan)*planBytesPerFP + planBytesSlack
	if err := sc.readBody(r.Body, r.ContentLength, maxBody); err != nil {
		if errors.Is(err, errPlanBodyTooLarge) {
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		}
		return
	}
	pairs, perr := decodePlan(sc.body, sc.pairs, s.cfg.maxPlan)
	sc.pairs = pairs
	if perr != nil {
		http.Error(w, perr.msg, perr.status)
		return
	}
	// The paper stores a <fingerprint, location> entry per chunk: take the
	// plan's run of locators in one step.
	first := s.locator.Add(uint64(len(pairs))) - uint64(len(pairs)) + 1
	for i := range pairs {
		pairs[i].Val = core.Value(first + uint64(i))
	}

	// One batched query to the hash cluster — the aggregation the paper's
	// front-end performs to preserve chunk locality. Small plans from
	// chatty clients are pooled with other requests first. The request's
	// context rides along: a client that disconnects mid-plan stops its
	// cluster work instead of holding flight-table slots.
	results, err := s.executePlan(r.Context(), pairs)
	if err != nil {
		s.cfg.Logger.Printf("webfront: plan: %v", err)
		http.Error(w, "hash cluster error: "+err.Error(), statusForError(err))
		return
	}
	out := append(sc.out[:0], `{"missing":[`...)
	for i, res := range results {
		if !res.Exists {
			if out[len(out)-1] != '[' {
				out = append(out, ',')
			}
			out = strconv.AppendInt(out, int64(i), 10)
		}
	}
	out = append(out, "]}\n"...)
	sc.out = out
	s.plans.Add(1)
	s.lookups.Add(int64(len(pairs)))
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
}
