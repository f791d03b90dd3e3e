package impl

import "testing"

func TestTimerReset(t *testing.T) {
	var tm Timer
	tm.Reset()
	if NewTally().testRead != 1 || unusedLimit != 8 {
		t.Fatal("fixture constants changed")
	}
}
