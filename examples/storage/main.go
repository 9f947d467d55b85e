// Storage: the block-device side of the paper (§4). An NVMe SSD — whose
// queues are consumed strictly in order, making it a natural rIOMMU target —
// and a SATA/AHCI disk — whose 32 slots complete out of order and need the
// MapAt extension — both run under full rIOMMU protection.
package main

import (
	"bytes"
	"fmt"
	"log"

	"riommu/internal/core"
	"riommu/internal/cycles"
	"riommu/internal/detrand"
	"riommu/internal/dma"
	"riommu/internal/driver"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

func main() {
	mm, err := mem.New(8192 * mem.PageSize)
	if err != nil {
		log.Fatal(err)
	}
	clk := &cycles.Clock{}
	model := cycles.DefaultModel()
	hw := core.New(clk, &model, mm)
	eng := dma.NewEngine(mm, hw)

	nvmeDemo(mm, clk, &model, hw, eng)
	fmt.Println()
	sataDemo(mm, clk, &model, hw, eng)
}

func nvmeDemo(mm *mem.PhysMem, clk *cycles.Clock, model *cycles.Model, hw *core.RIOMMU, eng *dma.Engine) {
	fmt.Println("== NVMe under rIOMMU (in-order queues, Map at the ring tail) ==")
	bdf := pci.NewBDF(0, 4, 0)
	prot, err := core.NewDriver(clk, model, mm, hw, bdf, []uint32{4, 512, 512}, true)
	if err != nil {
		log.Fatal(err)
	}
	d, err := driver.NewNVMeDriver(mm, prot, eng, bdf, 4096, 512, 64)
	if err != nil {
		log.Fatal(err)
	}

	before := clk.Now()
	const ops = 32
	for i := 0; i < ops; i++ {
		if _, err := d.Write(uint64(i), bytes.Repeat([]byte{byte(i)}, 4096)); err != nil {
			log.Fatal(err)
		}
	}
	done, err := d.Poll(ops)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d blocks; per-op CPU cost %.0f cycles (map+submit+unmap)\n",
		len(done), float64(clk.Now()-before)/ops)

	for i := 0; i < 4; i++ {
		if _, err := d.Read(uint64(i), 4096); err != nil {
			log.Fatal(err)
		}
	}
	reads, err := d.Poll(4)
	if err != nil {
		log.Fatal(err)
	}
	for i, c := range reads {
		fmt.Printf("  block %d: %d bytes, first byte %#02x\n", i, len(c.Data), c.Data[0])
	}
	st := hw.Stats()
	fmt.Printf("rIOMMU: %d translations, %d prefetch hits, %d invalidations (one per completion burst)\n",
		st.Translations, st.PrefetchHits, st.Invalidations)
	if err := d.Teardown(); err != nil {
		log.Fatal(err)
	}
}

func sataDemo(mm *mem.PhysMem, clk *cycles.Clock, model *cycles.Model, hw *core.RIOMMU, eng *dma.Engine) {
	fmt.Println("== SATA/AHCI under rIOMMU (out-of-order slots, MapAt extension) ==")
	bdf := pci.NewBDF(0, 5, 0)
	prot, err := core.NewDriver(clk, model, mm, hw, bdf, []uint32{4, 32, 32}, true)
	if err != nil {
		log.Fatal(err)
	}
	d := driver.NewSATADriver(mm, prot, eng, bdf, 4096, 2048)

	for i := 0; i < 12; i++ {
		if _, err := d.SubmitWrite(uint64(i*7), bytes.Repeat([]byte{byte('A' + i)}, 4096)); err != nil {
			log.Fatal(err)
		}
	}
	rng := detrand.Source(2015)
	results, err := d.CompleteAll(&rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("drive completed slots in order:")
	for _, r := range results {
		fmt.Printf(" %d", r.Slot)
	}
	fmt.Println()

	// Read two blocks back, again completing out of order.
	if _, err := d.SubmitRead(7, 4096); err != nil {
		log.Fatal(err)
	}
	if _, err := d.SubmitRead(70, 4096); err != nil {
		log.Fatal(err)
	}
	reads, err := d.CompleteAll(&rng)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range reads {
		fmt.Printf("  slot %d read back first byte %q\n", r.Slot, r.Data[0])
	}
	fmt.Println("out-of-order unmaps stayed exact: each slot owns its own rPTE,")
	fmt.Println("so arbitrary completion order cannot corrupt another command's mapping.")
	if err := d.Teardown(&rng); err != nil {
		log.Fatal(err)
	}
}
