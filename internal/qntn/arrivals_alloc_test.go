package qntn

import (
	"testing"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/routing"
)

// admissionCases scans the day of sc for a topology instant with a served
// inter-LAN request and an unreachable one from a different source, and
// returns the instant with the graph left at it, the two requests, and a
// memo-hit request: the served request's source towards another host of
// its destination network.
func admissionCases(t *testing.T, sc *Scenario, ad *admission, g *routing.Graph) (at time.Duration, served, unreachable, hit queuedRequest) {
	t.Helper()
	for at = 0; at < 24*time.Hour; at += 10 * time.Minute {
		if err := sc.GraphInto(g, at); err != nil {
			t.Fatal(err)
		}
		ad.refresh(g)
		var haveServed, haveUnreachable bool
		for _, a := range sc.LANs {
			for _, b := range sc.LANs {
				if a.Name == b.Name {
					continue
				}
				src, dst := sc.GroundIDs[a.Name][0], sc.GroundIDs[b.Name][0]
				q := queuedRequest{req: netsim.Request{ID: 1, Src: src, Dst: dst}, arrived: at}
				si, _ := g.IndexOf(src)
				di, _ := g.IndexOf(dst)
				if !ad.route(si).Reachable(di) {
					if !haveUnreachable && (!haveServed || src != served.req.Src) {
						unreachable, haveUnreachable = q, true
					}
					continue
				}
				if haveServed || (haveUnreachable && src == unreachable.req.Src) {
					continue
				}
				ok, err := ad.tryServe(at, q, false)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					served, haveServed = q, true
					hosts := sc.GroundIDs[b.Name]
					hit = queuedRequest{req: netsim.Request{ID: 2, Src: src, Dst: hosts[len(hosts)-1]}, arrived: at}
				}
			}
		}
		if haveServed && haveUnreachable {
			return at, served, unreachable, hit
		}
	}
	t.Fatal("no instant of the day has both a served and an unreachable inter-LAN request")
	return
}

// TestTryServeSteadyStateZeroAllocs: once the slot table, the scratch pool
// and the path and evaluator buffers are warm, an admission step — memo
// refresh, a served request (memo miss, Dijkstra, path, evaluation), an
// unreachable one (memo miss) and a memo hit — allocates nothing, with the
// protocol layer off and on, on the paper's 108-satellite network.
func TestTryServeSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector bookkeeping allocates; AllocsPerRun is meaningless")
	}
	for _, tc := range []struct {
		name  string
		proto bool
	}{{"protocol-off", false}, {"protocol-on", true}} {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			if tc.proto {
				p.Protocol = protoTestConfig()
			}
			sc, err := NewSpaceGround(108, p)
			if err != nil {
				t.Fatal(err)
			}
			ad := newAdmission(sc)
			g := routing.NewGraph()
			at, served, unreachable, hit := admissionCases(t, sc, ad, g)
			var hitOK bool
			step := func() {
				ad.refresh(g)
				ad.waits, ad.fids = ad.waits[:0], ad.fids[:0]
				ok, err := ad.tryServe(at, served, false)
				if err != nil || !ok {
					t.Fatalf("served request: ok=%v err=%v", ok, err)
				}
				ok, err = ad.tryServe(at, unreachable, false)
				if err != nil || ok {
					t.Fatalf("unreachable request: ok=%v err=%v", ok, err)
				}
				if hitOK, err = ad.tryServe(at, hit, false); err != nil {
					t.Fatal(err)
				}
				if ad.used != 2 {
					t.Fatalf("memo ran %d searches for two sources", ad.used)
				}
			}
			step() // warm every buffer
			want := hitOK
			if n := testing.AllocsPerRun(50, step); n != 0 {
				t.Fatalf("warm admission step allocates %v times", n)
			}
			if hitOK != want {
				t.Fatal("memo-hit request changed outcome between identical steps")
			}
		})
	}
}
