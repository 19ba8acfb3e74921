package server

import "strings"

// ServerError is a protocol-level error line — "ERROR", "CLIENT_ERROR …",
// "SERVER_ERROR …" — received where a response was expected. The distinction
// it carries matters to every caller that pipelines: a ServerError means the
// server *answered*, so the connection is still response-aligned and usable
// for the requests queued behind it, whereas a transport error means the
// stream's framing is gone and nothing further on the conn can be trusted.
type ServerError struct {
	// Line is the raw response line, e.g. "SERVER_ERROR busy".
	Line string
}

func (e *ServerError) Error() string { return "server: " + e.Line }

// serverError converts an error-class response line into a *ServerError;
// non-error lines return nil.
func serverError(line string) error {
	if line == "ERROR" || strings.HasPrefix(line, "CLIENT_ERROR") ||
		strings.HasPrefix(line, "SERVER_ERROR") {
		return &ServerError{Line: line}
	}
	return nil
}
