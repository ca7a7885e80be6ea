package server

import "mzqos/internal/trace"

// Trace returns the server's flight recorder, or nil when tracing was
// disabled in the configuration. A nil recorder's methods all no-op, so
// callers may use the result without checking. The recorder itself is
// safe for concurrent use with the round loop, which is how the /trace
// endpoint reads live and frozen span history while rounds execute.
func (s *Server) Trace() *trace.Recorder { return s.trc }
