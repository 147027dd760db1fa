package serve

import (
	"fmt"
	"net/http"
	"strconv"
)

// handleEvents streams a job's buffered events as Server-Sent Events.
// Every event carries its per-job sequence number as the SSE id, so a
// client that reconnects with Last-Event-ID resumes exactly where its
// previous stream broke — the buffer replays the missed suffix first,
// then the stream goes live. The stream closes itself once the job is
// terminal and fully replayed.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		s.error(w, r, http.StatusInternalServerError, CodeInternal, "response writer cannot stream")
		return
	}

	after := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			after = n
		}
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	// Ask clients to back off a little between reconnects.
	fmt.Fprint(w, "retry: 2000\n\n")
	flusher.Flush()

	s.sseActive.Add(1)
	defer s.sseActive.Add(-1)

	ctx := r.Context()
	for {
		evs, more := job.WaitEvents(ctx, after)
		for _, ev := range evs {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Name, ev.Data)
			after = ev.ID
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		if !more {
			return
		}
	}
}
