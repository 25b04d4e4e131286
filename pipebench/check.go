package main

import (
	"fmt"

	"dcdb/internal/collectagent"
	"dcdb/internal/core"
	"dcdb/internal/libdcdb"
)

// Output checks. Each compares what the pipeline returned with what the
// generator's closed form says it must return; a non-nil error marks
// the operation as failed.

// checkSeries requires got to be exactly readings j0..j0+n-1 of sensor
// k: same count, same timestamps in the same order, same values.
func checkSeries(seed int64, k, j0, n int, got []core.Reading) error {
	if len(got) != n {
		return fmt.Errorf("sensor %d: got %d readings, want %d", k, len(got), n)
	}
	for i, r := range got {
		ts, v := tsOf(k, j0+i), valueOf(seed, k, j0+i)
		if r.Timestamp != ts || r.Value != v {
			return fmt.Errorf("sensor %d reading %d: got (%d, %g), want (%d, %g)", k, i, r.Timestamp, r.Value, ts, v)
		}
	}
	return nil
}

// keyedSeries is one sensor's part of a prefix result.
type keyedSeries struct {
	id core.SensorID
	rs []core.Reading
}

// prefixWant is one sensor a prefix query must return, in the order it
// must return them (ascending SID).
type prefixWant struct {
	id core.SensorID
	k  int
}

// checkPrefix requires got to hold exactly the wanted sensors, in
// ascending SID order, each with readings j0..j0+n-1.
func checkPrefix(seed int64, want []prefixWant, j0, n int, got []keyedSeries) error {
	if len(got) != len(want) {
		return fmt.Errorf("prefix: got %d sensors, want %d", len(got), len(want))
	}
	for i := range got {
		if i > 0 && got[i-1].id.Compare(got[i].id) >= 0 {
			return fmt.Errorf("prefix: sensor %d (%s) not in ascending SID order", i, got[i].id)
		}
		if got[i].id != want[i].id {
			return fmt.Errorf("prefix: sensor %d is %s, want %s", i, got[i].id, want[i].id)
		}
		if err := checkSeries(seed, want[i].k, j0, n, got[i].rs); err != nil {
			return fmt.Errorf("prefix: %w", err)
		}
	}
	return nil
}

// wantSummary computes the summary of readings j0..j0+n-1 of sensor k
// from the closed form. Values are quarter-integers, so the sum is
// exact in any order and the mean has a single correct rounding.
func wantSummary(seed int64, k, j0, n int) libdcdb.Aggregate {
	a := libdcdb.Aggregate{Count: n}
	var sum float64
	for j := j0; j < j0+n; j++ {
		v := valueOf(seed, k, j)
		if j == j0 || v < a.Min {
			a.Min = v
		}
		if j == j0 || v > a.Max {
			a.Max = v
		}
		sum += v
	}
	a.Mean = sum / float64(n)
	a.First = core.Reading{Timestamp: tsOf(k, j0), Value: valueOf(seed, k, j0)}
	a.Last = core.Reading{Timestamp: tsOf(k, j0+n-1), Value: valueOf(seed, k, j0+n-1)}
	return a
}

func checkSummary(want, got libdcdb.Aggregate) error {
	if got != want {
		return fmt.Errorf("summary: got %+v, want %+v", got, want)
	}
	return nil
}

// checkDownsample requires at most nmax points, in ascending time
// order, all inside [from, to].
func checkDownsample(from, to int64, nmax int, got []core.Reading) error {
	if len(got) == 0 || len(got) > nmax {
		return fmt.Errorf("downsample: got %d points, want 1..%d", len(got), nmax)
	}
	for i, r := range got {
		if r.Timestamp < from || r.Timestamp > to {
			return fmt.Errorf("downsample: point %d at %d outside [%d, %d]", i, r.Timestamp, from, to)
		}
		if i > 0 && got[i-1].Timestamp >= r.Timestamp {
			return fmt.Errorf("downsample: point %d out of order", i)
		}
	}
	return nil
}

// checkAllValues requires every reading to carry v: a divergent sensor
// read must return the newest write.
func checkAllValues(n int, v float64, got []core.Reading) error {
	if len(got) != n {
		return fmt.Errorf("got %d readings, want %d", len(got), n)
	}
	for i, r := range got {
		if r.Value != v {
			return fmt.Errorf("reading %d: got value %g, want the newest write %g", i, r.Value, v)
		}
	}
	return nil
}

// checkAgent requires the agent to have stored every published reading
// without an error.
func checkAgent(st collectagent.Stats, messages, readings int64) error {
	if st.Messages != messages || st.Readings != readings || st.Errors != 0 {
		return fmt.Errorf("agent: %d messages, %d readings, %d errors; want %d, %d, 0",
			st.Messages, st.Readings, st.Errors, messages, readings)
	}
	return nil
}
