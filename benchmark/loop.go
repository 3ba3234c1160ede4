package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one named set of inputs and the client behaviour that
// drives them. generate makes the inputs from the seed: that is the
// benchmark's work, done once per run and not timed. clients goroutines
// issue the ops, and the run uses as many processors (GOMAXPROCS): the
// garbage collector then shares the clients' processors, so the
// reference task timed between ops runs under the same conditions as
// the ops (see reference.go).
type workload struct {
	name     string
	clients  int
	scale    scale
	generate func(seed int64, sc scale) (inputs, error)
}

// inputs are a workload's generated inputs. setup readies the program
// for rounds rounds of ops, one op per input each: the program's
// set-up, which setup_s times.
type inputs interface {
	setup(rounds int) (instance, error)
}

// scale sizes one workload's inputs and run. The command runs each
// workload's own scale; the smoke test shrinks it.
type scale struct {
	inputs   int     // problems, hot systems or sessions
	existing int     // processes of the frozen applications
	current  int     // processes of the current application
	rate     float64 // ops per second of -seconds: the run's work
	setups   int     // set-ups behind the setup_s median
}

// residentMB returns the memory the process holds from the operating
// system: what the Go runtime obtained minus what it has returned.
func residentMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys-ms.HeapReleased) / (1 << 20)
}

// rounds returns how many rounds over the inputs a run issues: rate
// times seconds ops, at least one round, rounded up to whole rounds; a
// traced run needs an even number (see closedLoop). The count depends
// only on the arguments, never on how fast the run goes, so a change and
// its parent do the same work.
func (sc scale) rounds(seconds float64, traced bool) int {
	ops := max(int(math.Ceil(sc.rate*seconds)), 1)
	r := (ops + sc.inputs - 1) / sc.inputs
	if traced {
		r = max(2, r+r%2)
	}
	return r
}

var workloads = map[string]*workload{
	"mh-single-bus":   mhSingleBus,
	"sa-multicluster": saMulticluster,
	"svc-resubmit":    svcResubmit,
	"svc-commit":      svcCommit,
}

// instance is a set-up workload, ready to issue timed ops.
type instance interface {
	// inputs is the number of distinct inputs; op i works on input
	// i % inputs, so a round of inputs ops covers each once.
	inputs() int
	// balanced reports whether latency and throughput are averaged per
	// input (one client over inputs of unequal cost) rather than pooled.
	balanced() bool
	// op issues op i, traced when lt is non-nil, and checks its result.
	op(i int, lt *layers) sample
	// docs returns the canonical result document of each input.
	docs() [][]byte
	// traceCases returns the problems, solutions and request bodies the
	// traced run's layer probes replay.
	traceCases() ([]traceCase, error)
	close()
}

// sample is one timed op.
type sample struct {
	index  int
	key    int // input index
	traced bool
	start  time.Time
	dur    time.Duration
	err    error
}

// closedLoop issues ops 0..ops-1 from clients goroutines, each
// sending its next op only when its previous one returned. Client 0 also
// samples the reference task and the resident memory as it goes (see
// refClock.tick). With lt set, rounds alternate between untraced and
// traced, so both halves cover the same inputs. It returns the samples
// in op order, the elapsed time and the median resident memory in MB.
func closedLoop(inst instance, clients, ops int, lt *layers, clock *refClock) ([]sample, time.Duration, float64) {
	round := inst.inputs()
	var next atomic.Int64
	var mem []float64
	perClient := make([][]sample, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if c == 0 && clock.tick() {
					mem = append(mem, residentMB())
				}
				i := int(next.Add(1) - 1)
				if i >= ops {
					return
				}
				var olt *layers
				if lt != nil && (i/round)%2 == 1 {
					olt = lt
				}
				start := time.Now()
				s := inst.op(i, olt)
				s.index, s.key, s.traced, s.start = i, i%round, olt != nil, start
				perClient[c] = append(perClient[c], s)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	clock.sample(10)
	var all []sample
	for _, ss := range perClient {
		all = append(all, ss...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].index < all[b].index })
	return all, elapsed, median(mem)
}

// summarize returns the median op latency in ms and the ops per second
// of the successful samples, each op's duration multiplied by scale(op)
// (see refClock.scaleAt). Pooled workloads scale the elapsed time by the
// ops' duration-weighted mean scale. Balanced workloads take the median
// over inputs of each input's median latency and the throughput of a
// round that visits each input once, so inputs of unequal cost weigh
// the same in every run.
func summarize(samples []sample, elapsed time.Duration, balanced bool, scale func(sample) float64) (p50ms, perSec float64) {
	ms := func(s sample) float64 { return float64(s.dur) / float64(time.Millisecond) * scale(s) }
	if !balanced {
		var lat []float64
		var raw, scaled float64
		for _, s := range samples {
			if s.err == nil {
				lat = append(lat, ms(s))
				raw += float64(s.dur)
				scaled += float64(s.dur) * scale(s)
			}
		}
		if raw == 0 {
			return 0, 0
		}
		return median(lat), float64(len(lat)) / (elapsed.Seconds() * scaled / raw)
	}
	byKey := map[int][]float64{}
	for _, s := range samples {
		if s.err == nil {
			byKey[s.key] = append(byKey[s.key], ms(s))
		}
	}
	var medians []float64
	var roundMS float64
	for _, lat := range byKey {
		medians = append(medians, median(lat))
		roundMS += mean(lat)
	}
	if roundMS == 0 {
		return 0, 0
	}
	return median(medians), float64(len(byKey)) * 1000 / roundMS
}

// median returns the middle value (the mean of the middle two), 0 when
// xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns Q1, Q2 and Q3 with the exclusive method of Python's
// statistics.quantiles(xs, n=4), the spread rule BENCHMARK.json's bounds
// are checked with. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
