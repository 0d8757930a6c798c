package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/serve"
)

// localFleet is the fleet under test: the router in front of two
// replicas, each on its own loopback port. The child process runs one
// untraced; the traced run runs one in-process with every handler
// wrapped in spans.
type localFleet struct {
	info     fleetInfo
	servers  []*serve.Server
	router   *fleet.Router
	httpSrvs []*http.Server
}

// bootFleet starts the replicas and the router and prewarms the fixed
// world's key pool on every replica concurrently. spans may be nil.
func bootFleet(ctx context.Context, spans *spanLog) (*localFleet, error) {
	tf := &localFleet{}
	var members []fleet.Member
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tf.stop()
			return nil, err
		}
		srv := serve.New(serve.Config{})
		hs := &http.Server{Handler: spans.wrap("serve", srv.Handler())}
		go hs.Serve(ln)
		tf.servers = append(tf.servers, srv)
		tf.httpSrvs = append(tf.httpSrvs, hs)
		url := "http://" + ln.Addr().String()
		tf.info.Replicas = append(tf.info.Replicas, url)
		members = append(members, fleet.Member{ID: "r" + strconv.Itoa(i), URL: url})
	}
	router, err := fleet.NewRouter(members, fleet.Options{})
	if err != nil {
		tf.stop()
		return nil, err
	}
	tf.router = router
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tf.stop()
		return nil, err
	}
	hs := &http.Server{Handler: spans.wrap("fleet", router.Handler())}
	go hs.Serve(ln)
	tf.httpSrvs = append(tf.httpSrvs, hs)
	tf.info.Router = "http://" + ln.Addr().String()

	errs := make([]error, len(tf.servers))
	var wg sync.WaitGroup
	for i, srv := range tf.servers {
		wg.Add(1)
		go func(i int, srv *serve.Server) {
			defer wg.Done()
			_, errs[i] = srv.Prewarm(ctx, worldSeed, 0, 1)
		}(i, srv)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		tf.stop()
		return nil, fmt.Errorf("prewarm: %w", err)
	}
	return tf, nil
}

func (tf *localFleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range tf.httpSrvs {
		hs.Shutdown(ctx)
	}
	if tf.router != nil {
		tf.router.Close()
	}
	for _, srv := range tf.servers {
		srv.Shutdown(ctx)
	}
}
