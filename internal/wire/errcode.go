package wire

import "fmt"

// Code is the one-byte error code that opens every TypeError payload, so a
// client dispatches on a number instead of parsing prose. The table in
// docs/PROTOCOL.md lists what each code carries and what a client does with
// it.
type Code uint8

// Error codes.
const (
	// CodeInternal is a server-side failure with no routing significance.
	CodeInternal Code = iota
	// CodeBadRequest marks a malformed or unsupported request.
	CodeBadRequest
	// CodeCancelled reports that the request's context was cancelled.
	CodeCancelled
	// CodeDeadline reports that the request's deadline expired.
	CodeDeadline
	// CodeNotOwner tells a stale-ring client this node does not own the
	// requested key; the payload carries the current owner's id and
	// address so the client can re-dial it directly (one extra RTT
	// instead of proxying through the wrong node).
	CodeNotOwner
	// CodeVersionMismatch refuses a connection whose first frame is not a
	// Hello carrying ProtocolVersion. The connection closes behind it.
	CodeVersionMismatch
)

// codeNames is what Code.String prints, and the "Name" column of the
// error table in docs/PROTOCOL.md.
var codeNames = [...]string{
	CodeInternal:        "INTERNAL",
	CodeBadRequest:      "BAD_REQUEST",
	CodeCancelled:       "CANCELLED",
	CodeDeadline:        "DEADLINE",
	CodeNotOwner:        "NOT_OWNER",
	CodeVersionMismatch: "VERSION_MISMATCH",
}

func (c Code) String() string {
	if int(c) < len(codeNames) {
		return codeNames[c]
	}
	return fmt.Sprintf("code(%d)", uint8(c))
}

// ErrorPayload is a decoded TypeError payload. The owner fields are set
// only with CodeNotOwner.
type ErrorPayload struct {
	Code      Code
	Msg       string
	OwnerID   string
	OwnerAddr string
}

// AppendError appends a TypeError payload to dst:
//
//	uint8   code
//	uint16  message length | message bytes
//	uint16  owner id length | id bytes      (CodeNotOwner, else 0)
//	uint16  owner addr length | addr bytes  (CodeNotOwner, else 0)
func AppendError(dst []byte, e ErrorPayload) []byte {
	dst = append(dst, byte(e.Code))
	dst = appendString(dst, e.Msg)
	dst = appendString(dst, e.OwnerID)
	return appendString(dst, e.OwnerAddr)
}

// DecodeErrorPayload decodes a TypeError payload. A code this build does
// not know decodes as itself and, mapping to nothing, acts as CodeInternal.
func DecodeErrorPayload(b []byte) (ErrorPayload, error) {
	if len(b) < 1 {
		return ErrorPayload{}, fmt.Errorf("wire: error payload: missing code: %w", ErrShortPayload)
	}
	e := ErrorPayload{Code: Code(b[0])}
	rest := b[1:]
	var err error
	if e.Msg, rest, err = cutString(rest); err != nil {
		return ErrorPayload{}, fmt.Errorf("wire: error payload message: %w", err)
	}
	if e.OwnerID, rest, err = cutString(rest); err != nil {
		return ErrorPayload{}, fmt.Errorf("wire: error payload owner id: %w", err)
	}
	if e.OwnerAddr, rest, err = cutString(rest); err != nil {
		return ErrorPayload{}, fmt.Errorf("wire: error payload owner addr: %w", err)
	}
	if len(rest) != 0 {
		return ErrorPayload{}, fmt.Errorf("wire: error payload: %d trailing bytes: %w", len(rest), ErrShortPayload)
	}
	return e, nil
}
