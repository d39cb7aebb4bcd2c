package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"

	"krak/internal/compare"
)

// handleCompare sweeps one scenario across the request's machine set and
// returns the comparison report — scaling curves, knees, crossovers —
// byte-identical to `krak compare --json` for the same request. Reports
// carry no wall-clock timings, so responses are cached like predictions,
// keyed by a content hash of the canonical normalized request. Every
// machine in the set goes through the shared machineFor cache, so
// repeated comparisons (and the other endpoints) reuse the same machines
// and artifact caches.
func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	var req compare.Request
	if err := decode(w, r, &req); err != nil {
		WriteError(w, ErrorStatus(err), err)
		return
	}
	req = req.Normalized()
	for i, ms := range req.Machines {
		resolved, err := ResolveSpec(ms, s.cfg.Quick)
		if err != nil {
			WriteError(w, ErrorStatus(err), fmt.Errorf("machine %d: %w", i, err))
			return
		}
		req.Machines[i] = resolved
	}
	canon, err := json.Marshal(req)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	key := fmt.Sprintf("compare|%x", sha256.Sum256(canon))
	// Like predict and calibrate fills, the sweep runs detached from the
	// request context: coalesced strangers must not be failed by one
	// client disconnecting, and the report is cacheable regardless.
	s.cachedBody(w, key, func() ([]byte, error) {
		//krakcheck:ignore ctxflow deliberate detach: coalesced fill shared by other requests must survive this client disconnecting
		return rendered(compare.Run(context.Background(), req, s.machineFor, s.pool))
	})
}
