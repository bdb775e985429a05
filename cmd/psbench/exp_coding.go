package main

import (
	"fmt"
	"math/rand"
	"time"

	"peerstripe/internal/erasure"
	"peerstripe/internal/stats"
	"peerstripe/internal/trace"
)

// runTable2 regenerates Table 2: encoded size and encode/decode time
// for a 4 MB chunk under the NULL, (2,3) XOR, and online codes (q=3,
// ε=0.01, 4096 blocks per chunk).
func runTable2(runs int) {
	section("Table 2: erasure-code cost for a 4 MB chunk")
	fmt.Printf("kernels: %s\n", erasure.KernelImpl())
	rng := rand.New(rand.NewSource(42))
	chunk := make([]byte, 4*trace.MB)
	rng.Read(chunk)

	codes := []erasure.Code{
		erasure.NewNull(),
		erasure.MustXOR(2),
		erasure.MustOnline(4096, erasure.OnlineOpts{}), // q=3, ε=0.01
		// Extra comparator beyond the paper's table: the optimal
		// (ε = 0) code its §2.2 discusses. Stripe width is field-bound
		// (n+k ≤ 255), so 16+4 rather than 4096 blocks.
		erasure.MustRS(16, 4),
	}

	type row struct {
		name               string
		encodedMB          float64
		sizeOvh            float64
		encodeMS, decodeMS stats.Acc
	}
	var rows []row
	var nullEnc, nullDec float64

	for _, c := range codes {
		r := row{name: c.Name()}
		for i := 0; i < runs; i++ {
			t0 := time.Now()
			blocks, err := c.Encode(chunk)
			if err != nil {
				panic(err)
			}
			r.encodeMS.Add(float64(time.Since(t0).Microseconds()) / 1000)

			var encoded int64
			for _, b := range blocks {
				encoded += int64(len(b.Data))
			}
			r.encodedMB = float64(encoded) / float64(trace.MB)
			r.sizeOvh = 100 * (float64(encoded)/float64(len(chunk)) - 1)

			t1 := time.Now()
			if _, err := c.Decode(blocks, len(chunk)); err != nil {
				panic(err)
			}
			r.decodeMS.Add(float64(time.Since(t1).Microseconds()) / 1000)
		}
		if c.Name() == "null" {
			nullEnc, nullDec = r.encodeMS.Mean(), r.decodeMS.Mean()
		}
		rows = append(rows, r)
	}

	fmt.Printf("runs=%d\n", runs)
	fmt.Printf("%-8s %14s %10s %14s %12s %14s %12s\n",
		"code", "size (MB)", "ovhd", "encode (ms)", "enc ovhd", "decode (ms)", "dec ovhd")
	for _, r := range rows {
		encOvh := "0%"
		decOvh := "0%"
		if r.name != "null" && nullEnc > 0 {
			encOvh = fmt.Sprintf("%.0f%%", 100*(r.encodeMS.Mean()/nullEnc-1))
			decOvh = fmt.Sprintf("%.0f%%", 100*(r.decodeMS.Mean()/nullDec-1))
		}
		fmt.Printf("%-8s %14.2f %9.0f%% %14.2f %12s %14.2f %12s\n",
			r.name, r.encodedMB, r.sizeOvh, r.encodeMS.Mean(), encOvh, r.decodeMS.Mean(), decOvh)
	}
	fmt.Println("paper:  null 4 MB/0% @11ms; xor 6 MB/50% @79ms (+618%); online 4.12 MB/3% @264ms (+2300%)")
	fmt.Println("        (absolute times are hardware/runtime dependent; the orderings are the result;")
	fmt.Println("         rs(16,4) is our extra optimal-code comparator, not in the paper's table)")
}

// runSchedules sweeps stored surplus × check schedule for the online
// code at the paper's Table 2 point (q=3, ε=0.01, 4096 blocks per 4 MB
// chunk), reporting the BP-completion rate (decodes finishing by pure
// peeling, without inactivating a column), the mean number of
// inactivated columns, and decode throughput, for both schedules: how
// far the banded schedule pushes the BP waterfall down without raising
// the stored surplus.
func runSchedules(runs int) {
	section("Decode schedules: BP completion × surplus (online code, 4 MB chunk)")
	rng := rand.New(rand.NewSource(43))
	chunk := make([]byte, 4*trace.MB)
	rng.Read(chunk)

	surpluses := []float64{0.02, 0.03, 0.05}
	fmt.Printf("runs=%d (each run a fresh seed: a new outer/inner equation draw)\n", runs)
	fmt.Printf("%-8s %-11s %8s %10s %10s %12s\n",
		"surplus", "schedule", "BP rate", "inact", "resid rows", "decode MB/s")
	var csvRows [][]string
	for _, surplus := range surpluses {
		for _, sched := range erasure.Schedules() {
			var bpDone, inact, rows int
			var decode stats.Acc
			for r := 0; r < runs; r++ {
				c, err := erasure.NewOnline(4096, erasure.OnlineOpts{
					Surplus: surplus, Seed: int64(r + 1), Schedule: sched,
				})
				if err != nil {
					panic(err)
				}
				blocks, err := c.Encode(chunk)
				if err != nil {
					panic(err)
				}
				t0 := time.Now()
				_, st, err := c.DecodeWithStats(blocks, len(chunk))
				if err != nil {
					panic(fmt.Sprintf("schedule %s surplus %g seed %d: %v", sched.Name(), surplus, r+1, err))
				}
				decode.Add(time.Since(t0).Seconds())
				if st.BPComplete {
					bpDone++
				}
				inact += st.Inactivated
				rows += st.ResidualRows
			}
			bpRate := float64(bpDone) / float64(runs)
			mbs := float64(len(chunk)) / float64(trace.MB) / decode.Mean()
			fmt.Printf("%7.0f%% %-11s %7.0f%% %10.1f %10.1f %12.1f\n",
				surplus*100, sched.Name(), bpRate*100,
				float64(inact)/float64(runs), float64(rows)/float64(runs), mbs)
			csvRows = append(csvRows, []string{
				fmt.Sprintf("%.2f", surplus), sched.Name(),
				fmt.Sprintf("%.2f", bpRate),
				fmt.Sprintf("%.1f", float64(inact)/float64(runs)),
				fmt.Sprintf("%.1f", mbs),
			})
		}
	}
	saveCSV("schedules", []string{"surplus", "schedule", "bp_rate", "inactivated", "decode_mb_s"}, csvRows)
	fmt.Println("note: inactivation decoding makes a stall cheap (tens of columns solved densely),")
	fmt.Println("      so throughput stays flat across the waterfall; BP rate shows where it sits.")

	runRepairArm(runs, chunk)
}

// runRepairArm measures the §4.4 repair path per schedule: minting a
// replacement check block with FreshBlock (one aux/composite build plus
// one composition XOR per block). This is the arm that shows whether a
// structured schedule helps or hurts block *regeneration*, not just
// decode: a repair node pays the mint cost for every block it
// re-creates during churn.
func runRepairArm(runs int, chunk []byte) {
	section("Repair path: FreshBlock mint throughput per schedule (online code, 4 MB chunk)")
	const mintsPerRun = 8
	fmt.Printf("runs=%d, %d fresh blocks per run, indices beyond the stored set\n", runs, mintsPerRun)
	fmt.Printf("%-11s %14s %14s\n", "schedule", "mint ms/block", "chunk MB/s")
	var csvRows [][]string
	for _, sched := range erasure.Schedules() {
		c, err := erasure.NewOnline(4096, erasure.OnlineOpts{Schedule: sched})
		if err != nil {
			panic(err)
		}
		var mint stats.Acc
		for r := 0; r < runs; r++ {
			t0 := time.Now()
			for j := 0; j < mintsPerRun; j++ {
				if _, err := c.FreshBlock(chunk, c.EncodedBlocks()+r*mintsPerRun+j); err != nil {
					panic(err)
				}
			}
			mint.Add(time.Since(t0).Seconds() / mintsPerRun)
		}
		msPerBlock := mint.Mean() * 1000
		// A mint re-reads the whole chunk (aux build dominates); express
		// that as chunk throughput for comparison with encode.
		mbs := float64(len(chunk)) / float64(trace.MB) / mint.Mean()
		fmt.Printf("%-11s %14.3f %14.1f\n", sched.Name(), msPerBlock, mbs)
		csvRows = append(csvRows, []string{
			sched.Name(), fmt.Sprintf("%.3f", msPerBlock), fmt.Sprintf("%.1f", mbs),
		})
	}
	saveCSV("repair", []string{"schedule", "mint_ms_block", "chunk_mb_s"}, csvRows)
	fmt.Println("note: mint cost is dominated by the aux/composite rebuild, which every schedule")
	fmt.Println("      shares; the schedule only changes the final composition gather.")
}
