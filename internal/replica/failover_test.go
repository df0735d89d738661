package replica_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	semprox "repro"
	"repro/api"
	"repro/client"
	"repro/internal/replica"
	"repro/internal/server"
)

// newDurableFollower builds a follower with a local state directory —
// the promotable kind semproxd -state runs.
func newDurableFollower(t *testing.T, primaryURL string, hc *http.Client, dir string) *replica.Follower {
	t.Helper()
	f := replica.NewFollower(primaryURL, hc)
	f.Dir = dir
	f.PollWait = 100 * time.Millisecond
	f.Backoff = 20 * time.Millisecond
	return f
}

// waitApplied polls until the follower has applied at least target.
func waitApplied(t *testing.T, f *replica.Follower, target uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if f.Status().Applied >= target {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower stuck at applied %d, want >= %d", f.Status().Applied, target)
}

// snapshotOf compacts and saves one engine's state for byte comparison.
func snapshotOf(t *testing.T, eng *semprox.Engine) []byte {
	t.Helper()
	eng.Compact()
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFollowerRestartConvergesByteIdentical is the restart property of a
// durable follower: killed at ANY point of catch-up, a new process that
// Restores from the local snapshot + local WAL — never touching the
// primary for state it already holds — converges to the same bytes as
// the primary AND as a follower freshly bootstrapped from scratch. The
// kill points land before, during, and after the live stream.
func TestFollowerRestartConvergesByteIdentical(t *testing.T) {
	for _, killAt := range []uint64{3, 5, 8} {
		t.Run(fmt.Sprintf("killAt=%d", killAt), func(t *testing.T) {
			h := newPrimaryHarness(t)
			rng := rand.New(rand.NewSource(int64(killAt)))
			for i := 0; i < 3; i++ {
				h.applyRandom(t, rng, fmt.Sprintf("pre%d", i))
			}
			dir := t.TempDir()
			f := newDurableFollower(t, h.ts.URL, h.ts.Client(), dir)
			ctx, cancel := context.WithCancel(context.Background())
			if err := f.Bootstrap(ctx); err != nil {
				t.Fatal(err)
			}
			runDone := make(chan error, 1)
			go func() { runDone <- f.Run(ctx) }()
			for i := 0; i < 5; i++ {
				h.applyRandom(t, rng, fmt.Sprintf("live%d", i))
			}
			waitApplied(t, f, killAt)
			cancel()
			<-runDone
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			// "Restart": a brand-new follower over the same directory must
			// restore without the primary and resume exactly where the
			// durable local state ends.
			f2 := newDurableFollower(t, h.ts.URL, h.ts.Client(), dir)
			restored, err := f2.Restore()
			if err != nil {
				t.Fatal(err)
			}
			if !restored {
				t.Fatal("Restore found no local state after a populated run")
			}
			if got := f2.Engine().LSN(); got < killAt {
				t.Fatalf("restored engine at LSN %d, want >= %d (locally fsynced records lost)", got, killAt)
			}
			ctx2, cancel2 := context.WithCancel(context.Background())
			runDone2 := make(chan error, 1)
			go func() { runDone2 <- f2.Run(ctx2) }()
			waitCaughtUp(t, f2, h.log.DurableLSN())
			cancel2()
			<-runDone2
			t.Cleanup(func() { f2.Close() })

			// A control follower bootstrapped fresh from the primary.
			f3 := replica.NewFollower(h.ts.URL, h.ts.Client())
			f3.PollWait = 100 * time.Millisecond
			f3.Backoff = 20 * time.Millisecond
			ctx3, cancel3 := context.WithCancel(context.Background())
			if err := f3.Bootstrap(ctx3); err != nil {
				t.Fatal(err)
			}
			runDone3 := make(chan error, 1)
			go func() { runDone3 <- f3.Run(ctx3) }()
			waitCaughtUp(t, f3, h.log.DurableLSN())
			cancel3()
			<-runDone3

			want := snapshotOf(t, h.eng)
			if got := snapshotOf(t, f2.Engine()); !bytes.Equal(got, want) {
				t.Fatal("restored follower's snapshot differs from the primary's")
			}
			if got := snapshotOf(t, f3.Engine()); !bytes.Equal(got, want) {
				t.Fatal("fresh-bootstrap follower's snapshot differs from the primary's")
			}
		})
	}
}

// TestPromotionServesWrites is the failover path end to end in-process:
// the primary dies, the durable follower promotes — raising the term,
// replaying any fsynced-but-unapplied local gap, and swapping its server
// role — and then accepts /v1/update with records stamped by the new
// term.
func TestPromotionServesWrites(t *testing.T) {
	h := newPrimaryHarness(t)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 4; i++ {
		h.applyRandom(t, rng, fmt.Sprintf("pre%d", i))
	}
	f := newDurableFollower(t, h.ts.URL, h.ts.Client(), t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- f.Run(ctx) }()
	h.applyRandom(t, rng, "live")
	waitCaughtUp(t, f, h.log.DurableLSN())
	atLSN := f.Status().Applied

	fsrv := server.New(f.Engine())
	fsrv.SetFollower(f)
	fts := httptest.NewServer(fsrv)
	defer fts.Close()
	fc := client.New(fts.URL, fts.Client())

	// Updates are refused while still a follower.
	if _, err := fc.Update(ctx, api.UpdateRequest{Nodes: []api.UpdateNode{{Type: "user", Name: "refused"}}}); err == nil {
		t.Fatal("follower accepted an update before promotion")
	}

	h.ts.Close() // the primary is gone
	cancel()
	<-runDone
	w, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Term(); got != 2 {
		t.Fatalf("promoted term = %d, want 2", got)
	}
	if _, err := semprox.ReplayWAL(f.Engine(), w); err != nil {
		t.Fatal(err)
	}
	if err := fsrv.Promote(w); err != nil {
		t.Fatal(err)
	}
	// A second promotion of the same follower is refused.
	if _, err := f.Promote(); err == nil {
		t.Fatal("double promotion accepted")
	}

	rctx := context.Background()
	ready, err := fc.Ready(rctx)
	if err != nil {
		t.Fatal(err)
	}
	if ready.Role != api.RolePrimary || ready.Term != 2 || !ready.Ready() {
		t.Fatalf("promoted readyz = %+v, want ready primary at term 2", ready)
	}
	resp, err := fc.Update(rctx, api.UpdateRequest{Nodes: []api.UpdateNode{{Type: "user", Name: "post-failover"}}})
	if err != nil {
		t.Fatalf("update on the promoted primary: %v", err)
	}
	if resp.LSN != atLSN+1 {
		t.Fatalf("promoted write at LSN %d, want %d (history must continue, not restart)", resp.LSN, atLSN+1)
	}
	if term, ok := w.TermAt(resp.LSN); !ok || term != 2 {
		t.Fatalf("promoted record's term = %d, %v; want 2", term, ok)
	}
	// The write is immediately queryable on the new primary.
	if f.Engine().Graph().NodeByName("post-failover") == semprox.InvalidNode {
		t.Fatal("promoted write not visible in the serving graph")
	}
}

// TestZombiePrimaryIsFenced: a follower that has seen term 2 and is
// pointed back at the still-running term-1 primary must refuse
// everything it says — reporting StatusFenced, regressing nothing,
// never re-bootstrapping into the stale history — and must recover the
// moment it is retargeted at the current-term primary.
func TestZombiePrimaryIsFenced(t *testing.T) {
	h := newPrimaryHarness(t) // will become the zombie
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 4; i++ {
		h.applyRandom(t, rng, fmt.Sprintf("pre%d", i))
	}
	// Follower A catches up, promotes to term 2, serves writes.
	fa := newDurableFollower(t, h.ts.URL, h.ts.Client(), t.TempDir())
	ctxA, cancelA := context.WithCancel(context.Background())
	if err := fa.Bootstrap(ctxA); err != nil {
		t.Fatal(err)
	}
	runA := make(chan error, 1)
	go func() { runA <- fa.Run(ctxA) }()
	waitCaughtUp(t, fa, h.log.DurableLSN())
	cancelA()
	<-runA
	srvA := server.New(fa.Engine())
	srvA.SetFollower(fa)
	tsA := httptest.NewServer(srvA)
	defer tsA.Close()
	w, err := fa.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := semprox.ReplayWAL(fa.Engine(), w); err != nil {
		t.Fatal(err)
	}
	if err := srvA.Promote(w); err != nil {
		t.Fatal(err)
	}
	ca := client.New(tsA.URL, tsA.Client())
	if _, err := ca.Update(context.Background(), api.UpdateRequest{Nodes: []api.UpdateNode{{Type: "user", Name: "term2-write"}}}); err != nil {
		t.Fatal(err)
	}

	// Follower B tracks the NEW primary (term 2), then gets pointed at
	// the zombie — the old primary never learned it was deposed.
	fb := replica.NewFollower(tsA.URL, tsA.Client())
	fb.PollWait = 50 * time.Millisecond
	fb.Backoff = 10 * time.Millisecond
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	if err := fb.Bootstrap(ctxB); err != nil {
		t.Fatal(err)
	}
	runB := make(chan error, 1)
	go func() { runB <- fb.Run(ctxB) }()
	srvB := server.New(fb.Engine())
	srvB.SetFollower(fb)
	tsB := httptest.NewServer(srvB)
	defer tsB.Close()
	waitCaughtUp(t, fb, 5)
	applied := fb.Status().Applied

	fb.Retarget(h.ts.URL) // the zombie
	deadline := time.Now().Add(10 * time.Second)
	for !fb.Status().Fenced {
		if time.Now().After(deadline) {
			t.Fatal("follower never fenced while polling the zombie")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := fb.Status()
	if st.Applied != applied {
		t.Fatalf("fenced follower's position moved: %d -> %d", applied, st.Applied)
	}
	if st.Ready {
		t.Fatal("fenced follower still reports ready")
	}
	if st.Term != 2 {
		t.Fatalf("fenced follower's term = %d, want 2 (it keeps its newest knowledge)", st.Term)
	}
	// /v1/readyz reports the distinct fenced status on 503.
	resp, err := tsB.Client().Get(tsB.URL + api.PathReadyz)
	if err != nil {
		t.Fatal(err)
	}
	var ready api.ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || ready.Status != api.StatusFenced {
		t.Fatalf("fenced readyz = %d %q, want 503 %q", resp.StatusCode, ready.Status, api.StatusFenced)
	}

	// Back on the real primary the fence clears without a re-bootstrap.
	fb.Retarget(tsA.URL)
	waitCaughtUp(t, fb, 5)
	if st := fb.Status(); st.Fenced || st.Applied < applied {
		t.Fatalf("fence did not clear cleanly: %+v", st)
	}
	cancelB()
	<-runB
}

// TestSinceTermMismatchForcesRebootstrap: a poller claiming a different
// term for a record this log holds gets 409 term_mismatch through the
// whole HTTP stack — the signal Follower.Run converts into a fresh
// bootstrap.
func TestSinceTermMismatchForcesRebootstrap(t *testing.T) {
	h := newPrimaryHarness(t)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3; i++ {
		h.applyRandom(t, rng, fmt.Sprintf("r%d", i))
	}
	c := client.New(h.ts.URL, h.ts.Client())
	ctx := context.Background()
	// The true term of LSN 2 is 1: claiming 5 is a diverged history.
	_, err := c.ReplicateSince(ctx, 2, 5, 10, 0)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeTermMismatch || apiErr.Status != http.StatusConflict {
		t.Fatalf("diverged poll returned %v, want 409 %s", err, api.CodeTermMismatch)
	}
	// The matching term and the term-less (legacy) poll both stream.
	if sr, err := c.ReplicateSince(ctx, 2, 1, 10, 0); err != nil || len(sr.Records) != 1 {
		t.Fatalf("matching-term poll = %+v, %v", sr, err)
	}
	if sr, err := c.ReplicateSince(ctx, 2, 0, 10, 0); err != nil || len(sr.Records) != 1 {
		t.Fatalf("term-less poll = %+v, %v", sr, err)
	}
}

// TestAckReplicasHoldsAckUntilConfirmed: with -ack-replicas the primary
// releases an update's ack only after a follower's poll position proves
// the record durable elsewhere. No follower -> the ack times out with
// the client; a live follower -> it completes.
func TestAckReplicasHoldsAckUntilConfirmed(t *testing.T) {
	h := newPrimaryHarness(t)
	// Rebuild the handler around the harness engine+log so we control
	// SetAckReplicas (the harness's own server has it off).
	srv := server.New(h.eng)
	srv.AttachWAL(h.log)
	srv.SetAckReplicas(1)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	_, err := c.Update(ctx, api.UpdateRequest{Nodes: []api.UpdateNode{{Type: "user", Name: "lonely"}}})
	cancel()
	if err == nil {
		t.Fatal("synchronous update acked with no replica in existence")
	}

	f := replica.NewFollower(ts.URL, ts.Client())
	f.PollWait = 100 * time.Millisecond
	f.Backoff = 10 * time.Millisecond
	fctx, fcancel := context.WithCancel(context.Background())
	defer fcancel()
	runDone := make(chan error, 1)
	go func() { runDone <- f.Run(fctx) }()
	t.Cleanup(func() { fcancel(); <-runDone })

	uctx, ucancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer ucancel()
	resp, err := c.Update(uctx, api.UpdateRequest{Nodes: []api.UpdateNode{{Type: "user", Name: "replicated"}}})
	if err != nil {
		t.Fatalf("synchronous update with a live follower: %v", err)
	}
	waitCaughtUp(t, f, resp.LSN)
	if f.Engine().Graph().NodeByName("replicated") == semprox.InvalidNode {
		t.Fatal("confirmed record not on the follower")
	}
}

// TestNewerHistoryPollDoesNotConfirm: a deposed primary (zombie) keeps
// seeing polls from followers that moved on to its successor — positioned
// past its own durable end, under a newer term. Those polls are served
// (the response's stale term is what fences the poller) but they vouch
// for a DIFFERENT history, so they must never release the zombie's
// synchronous acks: a write it acked on that basis would exist nowhere
// else, ever.
func TestNewerHistoryPollDoesNotConfirm(t *testing.T) {
	h := newPrimaryHarness(t)
	rng := rand.New(rand.NewSource(7))
	h.applyRandom(t, rng, "r0")
	srv := server.New(h.eng)
	srv.AttachWAL(h.log)
	srv.SetAckReplicas(1)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())

	poll := func(stop chan struct{}, after func() uint64, term uint64) {
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.ReplicateSince(context.Background(), after(), term, 10, 0) //nolint:errcheck
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Zombie's view of a fenced follower: ahead of this log, newer term.
	stop := make(chan struct{})
	go poll(stop, func() uint64 { return h.log.DurableLSN() + 50 }, 99)
	ctx, cancel := context.WithTimeout(context.Background(), 700*time.Millisecond)
	_, err := c.Update(ctx, api.UpdateRequest{Nodes: []api.UpdateNode{{Type: "user", Name: "zombie-write"}}})
	cancel()
	close(stop)
	if err == nil {
		t.Fatal("a poll vouching for a newer history confirmed the zombie's write")
	}

	// An honest poll at this log's own durable position does confirm.
	stop2 := make(chan struct{})
	defer close(stop2)
	go poll(stop2, h.log.DurableLSN, 0)
	uctx, ucancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer ucancel()
	if _, err := c.Update(uctx, api.UpdateRequest{Nodes: []api.UpdateNode{{Type: "user", Name: "confirmed"}}}); err != nil {
		t.Fatalf("honest confirmation did not release the ack: %v", err)
	}
}

// TestMonitorElectsLongestLog: when the primary dies, the monitor on the
// follower with the highest (term, LSN) wins the election — Run returns
// nil so its caller promotes — while a lagging peer's monitor keeps
// watching and retargets at the winner once it serves as primary.
func TestMonitorElectsLongestLog(t *testing.T) {
	h := newPrimaryHarness(t)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 3; i++ {
		h.applyRandom(t, rng, fmt.Sprintf("pre%d", i))
	}

	// f1 (durable) will follow to the end; f2 stops early and lags.
	f1 := newDurableFollower(t, h.ts.URL, h.ts.Client(), t.TempDir())
	ctx1, cancel1 := context.WithCancel(context.Background())
	if err := f1.Bootstrap(ctx1); err != nil {
		t.Fatal(err)
	}
	run1 := make(chan error, 1)
	go func() { run1 <- f1.Run(ctx1) }()
	f2 := replica.NewFollower(h.ts.URL, h.ts.Client())
	f2.PollWait = 50 * time.Millisecond
	f2.Backoff = 10 * time.Millisecond
	ctx2, cancel2 := context.WithCancel(context.Background())
	if err := f2.Bootstrap(ctx2); err != nil {
		t.Fatal(err)
	}
	run2 := make(chan error, 1)
	go func() { run2 <- f2.Run(ctx2) }()
	waitCaughtUp(t, f1, 3)
	waitCaughtUp(t, f2, 3)
	cancel2() // f2 stops replicating here: applied stays 3
	<-run2
	for i := 0; i < 2; i++ {
		h.applyRandom(t, rng, fmt.Sprintf("late%d", i))
	}
	waitCaughtUp(t, f1, 5)

	srv1 := server.New(f1.Engine())
	srv1.SetFollower(f1)
	ts1 := httptest.NewServer(srv1)
	defer ts1.Close()
	srv2 := server.New(f2.Engine())
	srv2.SetFollower(f2)
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	peers := []string{ts1.URL, ts2.URL}

	h.ts.Close() // primary dies

	mctx, mcancel := context.WithCancel(context.Background())
	defer mcancel()
	m1 := &replica.Monitor{F: f1, Self: ts1.URL, Peers: peers,
		Interval: 20 * time.Millisecond, Threshold: 2}
	m1Done := make(chan error, 1)
	go func() { m1Done <- m1.Run(mctx) }()
	m2 := &replica.Monitor{F: f2, Self: ts2.URL, Peers: peers,
		Interval: 20 * time.Millisecond, Threshold: 2}
	m2Done := make(chan error, 1)
	go func() { m2Done <- m2.Run(mctx) }()

	select {
	case err := <-m1Done:
		if err != nil {
			t.Fatalf("winning monitor returned %v, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("monitor on the longest log never won the election")
	}
	// The loser must still be watching — its LSN (3) loses to f1's (5).
	select {
	case err := <-m2Done:
		t.Fatalf("lagging monitor exited (%v); it must wait for the winner", err)
	default:
	}

	// Promote the winner, exactly as cmd/semproxd does.
	cancel1()
	<-run1
	w, err := f1.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := semprox.ReplayWAL(f1.Engine(), w); err != nil {
		t.Fatal(err)
	}
	if err := srv1.Promote(w); err != nil {
		t.Fatal(err)
	}

	// m2 discovers the new primary and retargets f2 at it.
	deadline := time.Now().Add(15 * time.Second)
	for f2.PrimaryURL() != ts1.URL {
		if time.Now().After(deadline) {
			t.Fatalf("lagging follower still targets %s, want %s", f2.PrimaryURL(), ts1.URL)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
