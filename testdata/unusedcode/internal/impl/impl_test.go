package impl

import "testing"

func TestTimerReset(t *testing.T) {
	tm := Timer{start: 3}
	tm.Reset()
	if tm.start != 0 || unusedLimit != 8 {
		t.Fatal("Reset kept the start time")
	}
}
