package cluster

// Worker side. A worker is a stock incmapd: the coordinator reaches it
// through its public /v1/solve, /v1/stats and /readyz. The one thing a
// worker may add is keeping itself registered with a coordinator.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"time"
)

// registerInterval is how often RegisterLoop re-posts the registration.
const registerInterval = 2 * time.Second

// RegisterLoop posts the worker's advertise URL to the coordinator's
// registration endpoint until ctx ends, re-posting every interval so a
// restarted coordinator re-learns the worker. Registration is
// idempotent by URL.
func RegisterLoop(ctx context.Context, coordinatorURL, selfURL string) {
	body, _ := json.Marshal(RegisterParams{URL: selfURL})
	post := func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, coordinatorURL+RegisterPath, bytes.NewReader(body))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return
		}
		resp.Body.Close()
	}
	post()
	tick := time.NewTicker(registerInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			post()
		}
	}
}
