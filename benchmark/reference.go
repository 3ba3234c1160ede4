package main

import (
	"math/rand"
	"sort"
	"strconv"
	"time"
)

// The host this benchmark runs on shares its cores with other machines:
// the same code runs up to 1.9 times slower while, for example, the two
// virtual CPUs sit on one physical core, and such phases come and go
// within seconds as well as over minutes. Repetition inside a run does
// not average that out, so every timing is measured against a fixed
// reference task timed alongside it, within a second of it in the same
// run, and reported scaled to the reference speed, at which the task
// takes refNominal:
//
//	reported = measured * refNominal / (median reference-task time around it)
//
// The task uses only the standard library and allocates nothing, so a
// change to the program, its allocation rate or its GC settings cannot
// move it; what moves it is the machine. The unscaled values are printed
// alongside (raw.*) and kept in the -out record.
const refNominal = time.Millisecond

// refWindow is how far around a measured interval reference samples
// count towards its scale.
const refWindow = 500 * time.Millisecond

// refTask is the reference task: sorting, open-addressing hashing and
// integer formatting over fixed pseudo-random keys, into buffers reused
// across runs.
type refTask struct {
	keys, sorted, table []int
	text                []byte
}

var refSink int

func newRefTask() *refTask {
	r := rand.New(rand.NewSource(7))
	t := &refTask{sorted: make([]int, 8000), table: make([]int, 1<<14), text: make([]byte, 0, 32)}
	for range t.sorted {
		t.keys = append(t.keys, 1+r.Intn(1<<30))
	}
	return t
}

// run performs the task once and returns its duration.
func (t *refTask) run() time.Duration {
	t0 := time.Now()
	copy(t.sorted, t.keys)
	sort.Ints(t.sorted)
	clear(t.table)
	mask := len(t.table) - 1
	for _, v := range t.sorted {
		h := (v * 0x9E3779B1) & mask
		for t.table[h] != 0 {
			h = (h + 1) & mask
		}
		t.table[h] = v
	}
	n := 0
	for _, v := range t.keys {
		h := (v * 0x9E3779B1) & mask
		for t.table[h] != v {
			h = (h + 1) & mask
		}
		t.text = strconv.AppendInt(t.text[:0], int64(v), 10)
		for _, c := range t.text {
			n = n*31 + int(c) + h
		}
	}
	refSink += n
	return time.Since(t0)
}

// refClock samples the reference task through one phase of a run (the
// set-ups, or the timed loop and the probes after it). It is used from
// one goroutine at a time.
type refClock struct {
	task *refTask
	at   []time.Time // when each sample ended, ascending
	ms   []float64
}

func newRefClock() *refClock { return &refClock{task: newRefTask()} }

// sample runs the task n times.
func (c *refClock) sample(n int) {
	for k := 0; k < n; k++ {
		d := c.task.run()
		c.at = append(c.at, time.Now())
		c.ms = append(c.ms, float64(d)/float64(time.Millisecond))
	}
}

// tick samples the task three times per 100 ms since the last sample,
// at most 30 times: about 1.5% of the loop's time, spread over the
// whole loop. It reports whether it sampled.
func (c *refClock) tick() bool {
	n := 10
	if len(c.at) > 0 {
		n = int(time.Since(c.at[len(c.at)-1]) / (100 * time.Millisecond))
	}
	if n == 0 {
		return false
	}
	c.sample(min(3*n, 30))
	return true
}

// medianMS returns the phase's median reference-task time in ms.
func (c *refClock) medianMS() float64 { return median(c.ms) }

// scale returns the factor that converts a duration measured during the
// phase to the reference speed.
func (c *refClock) scale() float64 { return refNominal.Seconds() * 1000 / c.medianMS() }

// scaleAt returns the factor that converts the duration of the interval
// [from, to] to the reference speed: from the samples within refWindow
// of it, or the nine nearest when fewer were taken there.
func (c *refClock) scaleAt(from, to time.Time) float64 {
	lo := sort.Search(len(c.at), func(i int) bool { return !c.at[i].Before(from.Add(-refWindow)) })
	hi := sort.Search(len(c.at), func(i int) bool { return c.at[i].After(to.Add(refWindow)) })
	for hi-lo < 9 && hi-lo < len(c.at) {
		switch {
		case lo == 0:
			hi++
		case hi == len(c.at) || from.Sub(c.at[lo-1]) < c.at[hi].Sub(to):
			lo--
		default:
			hi++
		}
	}
	return refNominal.Seconds() * 1000 / median(c.ms[lo:hi])
}
