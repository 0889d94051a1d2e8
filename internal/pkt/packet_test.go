package pkt

import (
	"testing"
	"testing/quick"
)

func TestDataPackets(t *testing.T) {
	cases := []struct {
		size int64
		want int32
	}{
		{0, 0},
		{-5, 0},
		{1, 1},
		{MSS, 1},
		{MSS + 1, 2},
		{10 * MSS, 10},
		{198 * 1000, int32((198*1000 + MSS - 1) / MSS)},
	}
	for _, c := range cases {
		if got := DataPackets(c.size); got != c.want {
			t.Errorf("DataPackets(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestSegmentWireSize(t *testing.T) {
	size := int64(2*MSS + 100)
	if got := SegmentWireSize(size, 0); got != MTU {
		t.Errorf("seg 0 = %d, want %d", got, MTU)
	}
	if got := SegmentWireSize(size, 1); got != MTU {
		t.Errorf("seg 1 = %d, want %d", got, MTU)
	}
	if got := SegmentWireSize(size, 2); got != 100+HeaderSize {
		t.Errorf("seg 2 = %d, want %d", got, 100+HeaderSize)
	}
	if got := SegmentWireSize(size, 3); got != HeaderSize {
		t.Errorf("out-of-range seg = %d, want header size", got)
	}
}

// Property: segment wire sizes of a flow sum to payload + per-packet headers.
func TestSegmentSizesSumToFlow(t *testing.T) {
	f := func(raw uint32) bool {
		size := int64(raw%500000) + 1
		n := DataPackets(size)
		var sum int64
		for s := int32(0); s < n; s++ {
			sum += int64(SegmentWireSize(size, s))
		}
		return sum == size+int64(n)*HeaderSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTypeString(t *testing.T) {
	if Data.String() != "DATA" || Ack.String() != "ACK" || Credit.String() != "CREDIT" {
		t.Fatal("type names wrong")
	}
	if Type(99).String() == "" {
		t.Fatal("unknown type should still format")
	}
}
