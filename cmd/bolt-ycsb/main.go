// Command bolt-ycsb drives YCSB workloads against any engine profile, on a
// real directory, in memory, or on the simulated SSD.
//
// Examples:
//
//	bolt-ycsb -db /tmp/db -profile bolt -workload LA -ops 100000
//	bolt-ycsb -storage sim -profile leveldb -workload LA -ops 50000 -then A,B,C
//	bolt-ycsb -storage sim -profile pebblesdb -workload LA -dist uniform
//	bolt-ycsb -db /tmp/db -preset large-value -workload LA -then A
//	bolt-ycsb -db /tmp/db -value-size 4096 -value-size-dist zipf -value-threshold 1024
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"time"

	"github.com/bolt-lsm/bolt"
	"github.com/bolt-lsm/bolt/internal/bench"
	"github.com/bolt-lsm/bolt/internal/ycsb"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bolt-ycsb:", err)
		os.Exit(1)
	}
}

// watchInterrupt installs a SIGINT handler for graceful shutdown: the
// returned channel closes on the first interrupt so workloads can stop at
// an operation boundary and the deferred db.Close still flushes and syncs.
// After that the handler uninstalls itself, so a second interrupt kills the
// process the default way. The returned stop function uninstalls the
// handler and joins the watcher goroutine; run defers it so the watcher
// never outlives the database it guards. (It is a top-level function
// because run's -sync flag variable shadows the sync package.)
func watchInterrupt() (interrupted <-chan struct{}, stop func()) {
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt)
	exit := make(chan struct{})
	ch := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-sigC:
			fmt.Fprintln(os.Stderr, "bolt-ycsb: interrupt: finishing in-flight operations, then closing")
			signal.Stop(sigC)
			close(ch)
		case <-exit:
		}
	}()
	return ch, func() {
		signal.Stop(sigC)
		close(exit)
		wg.Wait()
	}
}

func parseProfile(name string) (bolt.Profile, error) {
	switch strings.ToLower(name) {
	case "leveldb":
		return bolt.ProfileLevelDB, nil
	case "leveldb64", "lvl64":
		return bolt.ProfileLevelDB64MB, nil
	case "hyperleveldb", "hyper":
		return bolt.ProfileHyperLevelDB, nil
	case "rocksdb", "rocks":
		return bolt.ProfileRocksDB, nil
	case "pebblesdb", "pebbles":
		return bolt.ProfilePebblesDB, nil
	case "bolt":
		return bolt.ProfileBoLT, nil
	case "hyperbolt", "hbolt":
		return bolt.ProfileHyperBoLT, nil
	default:
		return 0, fmt.Errorf("unknown profile %q", name)
	}
}

func parseWorkload(name string) (ycsb.Workload, error) {
	switch strings.ToUpper(name) {
	case "LA":
		return ycsb.LoadA, nil
	case "LE":
		return ycsb.LoadE, nil
	case "A":
		return ycsb.WorkloadA, nil
	case "B":
		return ycsb.WorkloadB, nil
	case "C":
		return ycsb.WorkloadC, nil
	case "D":
		return ycsb.WorkloadD, nil
	case "E":
		return ycsb.WorkloadE, nil
	case "F":
		return ycsb.WorkloadF, nil
	default:
		return 0, fmt.Errorf("unknown workload %q", name)
	}
}

func run() (err error) {
	var (
		dir        = flag.String("db", "", "database directory (required for -storage disk)")
		storage    = flag.String("storage", "disk", "disk | mem | sim")
		profile    = flag.String("profile", "bolt", "leveldb | leveldb64 | hyper | rocks | pebbles | bolt | hyperbolt")
		workload   = flag.String("workload", "LA", "first workload: LA, LE, A..F")
		then       = flag.String("then", "", "comma-separated workloads to run after the first (e.g. A,B,C)")
		ops        = flag.Int64("ops", 100_000, "operations for the first workload")
		runOps     = flag.Int64("run-ops", 0, "operations for subsequent workloads (default ops/5)")
		records    = flag.Int64("records", 0, "pre-existing record count (for non-load first workloads)")
		valueSize  = flag.Int("value-size", 1024, "value payload bytes (exact for fixed, maximum for uniform/zipf)")
		valueDist  = flag.String("value-size-dist", "fixed", "per-write value length distribution: fixed | uniform | zipf")
		valueThr   = flag.Int("value-threshold", 0, "separate values of at least this many bytes into the value log (0 disables)")
		preset     = flag.String("preset", "", "flag preset: large-value (4 KiB values, separation at 1 KiB) — explicit flags win")
		threads    = flag.Int("threads", 4, "client threads")
		dist       = flag.String("dist", "zipfian", "zipfian | uniform | latest")
		seed       = flag.Int64("seed", 1, "workload seed")
		sync       = flag.Bool("sync", false, "sync WAL on every commit")
		statsEvery = flag.Duration("stats-every", 0, "print an engine stats line at this interval during the run (0 disables)")
	)
	flag.Parse()

	if *preset != "" {
		// A preset fills in defaults; flags the user set explicitly keep
		// their values.
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		switch *preset {
		case "large-value":
			if !explicit["value-size"] {
				*valueSize = 4096
			}
			if !explicit["value-threshold"] {
				*valueThr = 1024
			}
		default:
			return fmt.Errorf("unknown preset %q", *preset)
		}
	}

	prof, err := parseProfile(*profile)
	if err != nil {
		return err
	}
	first, err := parseWorkload(*workload)
	if err != nil {
		return err
	}
	var distribution ycsb.Distribution
	switch strings.ToLower(*dist) {
	case "zipfian":
		distribution = ycsb.Zipfian
	case "uniform":
		distribution = ycsb.Uniform
	case "latest":
		distribution = ycsb.Latest
	default:
		return fmt.Errorf("unknown distribution %q", *dist)
	}
	var sizeDist ycsb.ValueSizeDist
	switch strings.ToLower(*valueDist) {
	case "fixed":
		sizeDist = ycsb.FixedSize
	case "uniform":
		sizeDist = ycsb.UniformSize
	case "zipf", "zipfian":
		sizeDist = ycsb.ZipfSize
	default:
		return fmt.Errorf("unknown value size distribution %q", *valueDist)
	}
	if *runOps <= 0 {
		*runOps = *ops / 5
		if *runOps == 0 {
			*runOps = *ops
		}
	}

	opts := &bolt.Options{Profile: prof, SyncWrites: *sync, ValueThreshold: *valueThr}
	var db *bolt.DB
	switch *storage {
	case "disk":
		if *dir == "" {
			return errors.New("-db is required with -storage disk")
		}
		db, err = bolt.Open(*dir, opts)
	case "mem":
		db, err = bolt.OpenMem(opts)
	case "sim":
		db, err = bolt.OpenSim(opts, bolt.SimDisk{})
	default:
		return fmt.Errorf("unknown storage %q", *storage)
	}
	if err != nil {
		return err
	}
	// Close flushes and syncs the WAL tail; its error is the run's error
	// when nothing else failed first.
	defer func() {
		if cerr := db.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	defer bench.WatchStats(db, prof.String(), *statsEvery, os.Stdout)()
	interrupted, stopWatch := watchInterrupt()
	defer stopWatch()

	workloads := []ycsb.Workload{first}
	if *then != "" {
		for _, name := range strings.Split(*then, ",") {
			w, err := parseWorkload(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			workloads = append(workloads, w)
		}
	}

	recordCount := *records
	for i, w := range workloads {
		n := *ops
		if i > 0 {
			n = *runOps
		}
		res, err := ycsb.Run(bench.KV{DB: db}, ycsb.RunConfig{
			Workload:      w,
			Distribution:  distribution,
			RecordCount:   recordCount,
			Ops:           n,
			Threads:       *threads,
			ValueSize:     *valueSize,
			ValueSizeDist: sizeDist,
			Seed:          *seed + int64(i),
			Interrupt:     interrupted,
		})
		if err != nil {
			return err
		}
		recordCount += res.InsertedRecords
		fmt.Printf("%-3s %8d ops in %8v  %10.0f ops/s  read[%s]  write[%s]\n",
			w, res.Ops, res.Duration.Round(time.Millisecond), res.Throughput,
			res.Read, res.Write)
		if res.Interrupted {
			fmt.Println("bolt-ycsb: run interrupted; skipping remaining workloads")
			break
		}
	}

	s := db.Stats()
	fmt.Printf("\nstats: fsyncs=%d written=%d read=%d compactions=%d cmp-out=%d flushes=%d settled=%d stalls=%v holes=%d\n",
		s.Fsyncs, s.BytesWritten, s.BytesRead, s.Compactions, s.CompactionBytesOut,
		s.MemtableFlushes, s.SettledPromotions, time.Duration(s.StallTime).Round(time.Millisecond),
		s.HolePunches)
	if s.VLogAppends > 0 {
		fmt.Printf("vlog: appends=%d appended=%d derefs=%d gc-passes=%d reclaimed=%d\n",
			s.VLogAppends, s.VLogAppendedBytes, s.VLogDerefs,
			s.VLogGCPasses, s.VLogReclaimedBytes)
	}
	if sim, ok := db.SimStats(); ok {
		fmt.Printf("device: barriers=%d flushed=%d read=%d barrier-stall=%v read-stall=%v\n",
			sim.Barriers, sim.BytesFlushed, sim.BytesRead,
			sim.BarrierStall.Round(time.Millisecond), sim.ReadStall.Round(time.Millisecond))
	}
	return nil
}
