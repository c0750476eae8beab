package device

import (
	"sync"
	"testing"
	"time"
)

func TestModelLatencyComposition(t *testing.T) {
	m := Model{ReadBase: 100 * time.Microsecond, WriteBase: 200 * time.Microsecond, PerByte: 2 * time.Nanosecond}
	if got, want := m.ReadLatency(1000), 102*time.Microsecond; got != want {
		t.Fatalf("ReadLatency = %v, want %v", got, want)
	}
	if got, want := m.WriteLatency(500), 201*time.Microsecond; got != want {
		t.Fatalf("WriteLatency = %v, want %v", got, want)
	}
}

// ssd is a SATA II flash drive: ~60 µs a random 4 KiB read, writes about 3x
// slower, ~250 MB/s transfer.
var ssd = Model{Name: "ssd", ReadBase: 60 * time.Microsecond, WriteBase: 180 * time.Microsecond, PerByte: 4 * time.Nanosecond}

func TestDeviceAccounting(t *testing.T) {
	d := New(ssd, Account)
	d.Read(4096)
	d.Read(4096)
	d.Write(4096)

	s := d.Stats()
	if s.Reads != 2 || s.Writes != 1 {
		t.Fatalf("ops = %d reads / %d writes, want 2/1", s.Reads, s.Writes)
	}
	if s.ReadBytes != 8192 || s.WriteBytes != 4096 {
		t.Fatalf("bytes = %d/%d, want 8192/4096", s.ReadBytes, s.WriteBytes)
	}
	want := 2*ssd.ReadLatency(4096) + ssd.WriteLatency(4096)
	if s.Busy != want {
		t.Fatalf("busy = %v, want %v", s.Busy, want)
	}
}

func TestAccountModeDoesNotBlock(t *testing.T) {
	d := New(Model{Name: "hdd", ReadBase: 6 * time.Millisecond}, Account) // very visible if slept
	start := time.Now()
	for i := 0; i < 100; i++ {
		d.Read(4096)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("Account mode took %v; it must not sleep", elapsed)
	}
	if got := d.Stats().Busy; got < 600*time.Millisecond {
		t.Fatalf("busy = %v, want >= 600ms of modeled time", got)
	}
}

func TestSleepModeBlocks(t *testing.T) {
	m := Model{Name: "slow", ReadBase: 10 * time.Millisecond}
	d := New(m, Sleep)
	start := time.Now()
	d.Read(0)
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("Sleep mode returned in %v, want >= 10ms", elapsed)
	}
}

func TestNullChargesNothing(t *testing.T) {
	d := New(Model{Name: "null"}, Sleep)
	if lat := d.Read(1 << 20); lat != 0 {
		t.Fatalf("null read latency = %v, want 0", lat)
	}
	if lat := d.Write(1 << 20); lat != 0 {
		t.Fatalf("null write latency = %v, want 0", lat)
	}
}

func TestConcurrentAccounting(t *testing.T) {
	d := New(ssd, Account)
	var wg sync.WaitGroup
	const goroutines, each = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				d.Read(4096)
			}
		}()
	}
	wg.Wait()
	if got, want := d.Stats().Reads, int64(goroutines*each); got != want {
		t.Fatalf("reads = %d, want %d", got, want)
	}
}
