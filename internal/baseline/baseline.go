package baseline

import (
	"fmt"
	"path/filepath"

	"shhc/internal/core"
	"shhc/internal/device"
	"shhc/internal/hashdb"
	"shhc/internal/ring"
)

// Kind selects a baseline index design for comparative benchmarks.
type Kind int

const (
	// KindHybrid is SHHC's own node design: RAM LRU + Bloom + SSD page
	// hash table (the paper's contribution, included for side-by-side
	// numbers).
	KindHybrid Kind = iota + 1
	// KindChunkStash is the RAM-cuckoo-index + SSD-log design.
	KindChunkStash
	// KindDiskIndex is the naive HDD-resident index with no RAM tiers:
	// every lookup is a disk seek. This is the "slow seek time ...
	// degrades the performance of hash lookup operations" strawman of
	// the paper's abstract.
	KindDiskIndex
	// KindRAMOnly keeps everything in DRAM — an upper bound (and cost
	// strawman: RAM capacity cannot hold exabyte-scale indexes).
	KindRAMOnly
)

func (k Kind) String() string {
	switch k {
	case KindHybrid:
		return "shhc-hybrid"
	case KindChunkStash:
		return "chunkstash"
	case KindDiskIndex:
		return "disk-index"
	case KindRAMOnly:
		return "ram-only"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Config parameterizes baseline node construction.
type Config struct {
	// ID names the node.
	ID ring.NodeID
	// Dir is where file-backed stores live (required for KindHybrid and
	// KindDiskIndex when OnDisk is set).
	Dir string
	// ExpectedItems sizes indexes and filters.
	ExpectedItems int
	// CacheSize is the RAM LRU size for KindHybrid. Default 1/16 of
	// ExpectedItems.
	CacheSize int
	// Mode selects latency realization for modeled devices.
	Mode device.Mode
	// OnDisk stores KindHybrid/KindDiskIndex tables in real files;
	// otherwise a MemStore charged with the same device model is used
	// (faster for unit tests, identical latency accounting).
	OnDisk bool
}

func (c *Config) fill() {
	if c.ID == "" {
		c.ID = ring.NodeID(string(rune('a')) + "-baseline")
	}
	if c.ExpectedItems <= 0 {
		c.ExpectedItems = 1 << 20
	}
	if c.CacheSize <= 0 {
		c.CacheSize = c.ExpectedItems / 16
		if c.CacheSize < 16 {
			c.CacheSize = 16
		}
	}
	if c.Mode == 0 {
		c.Mode = device.Account
	}
}

// NewNode builds a node of the given baseline kind. The returned Backend
// is ready to serve lookups; Close releases its store.
func NewNode(kind Kind, cfg Config) (core.Backend, error) {
	cfg.fill()
	switch kind {
	case KindHybrid:
		store, err := newStore(cfg, device.SSD, "hybrid")
		if err != nil {
			return nil, err
		}
		return core.NewNode(core.NodeConfig{
			ID:            cfg.ID,
			Store:         store,
			CacheSize:     cfg.CacheSize,
			BloomExpected: cfg.ExpectedItems,
		})

	case KindChunkStash:
		stash := NewChunkStash(cfg.ExpectedItems, device.New(device.SSD, cfg.Mode))
		// ChunkStash keeps only the compact index in RAM: no LRU tier, no
		// separate Bloom filter (the cuckoo index itself answers
		// negatives from RAM).
		return core.NewNode(core.NodeConfig{
			ID:           cfg.ID,
			Store:        stash,
			DisableBloom: true,
		})

	case KindDiskIndex:
		store, err := newStore(cfg, device.HDD, "diskidx")
		if err != nil {
			return nil, err
		}
		// No cache, no Bloom: every lookup pays the disk seek, as in the
		// pre-ChunkStash baseline the paper describes.
		return core.NewNode(core.NodeConfig{
			ID:           cfg.ID,
			Store:        store,
			DisableBloom: true,
		})

	case KindRAMOnly:
		return core.NewNode(core.NodeConfig{
			ID:           cfg.ID,
			Store:        hashdb.NewMemStore(device.New(device.RAM, cfg.Mode)),
			DisableBloom: true,
		})
	}
	return nil, fmt.Errorf("baseline: unknown kind %v", kind)
}

func newStore(cfg Config, model device.Model, tag string) (hashdb.Store, error) {
	dev := device.New(model, cfg.Mode)
	if !cfg.OnDisk {
		return hashdb.NewMemStore(dev), nil
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("baseline: Config.Dir required for on-disk %s store", tag)
	}
	path := filepath.Join(cfg.Dir, fmt.Sprintf("%s-%s.shdb", tag, cfg.ID))
	return hashdb.Create(path, hashdb.Options{Device: dev})
}
