package main

import (
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	mom "repro"
)

// The reference documents are the Figure 7 result documents the drivers
// produced when the benchmark was recorded (go run . -record, from this
// directory). Simulated results are deterministic, so every pass must
// reproduce them byte for byte.
//
//go:embed reference
var referenceFS embed.FS

func referenceFile(sc mom.Scale, sampled bool) string {
	kind, scale := "exact", "bench"
	if sampled {
		kind = "sampled"
	}
	if sc == mom.ScaleTest {
		scale = "test"
	}
	return fmt.Sprintf("reference/fig7-%s-%s.json", kind, scale)
}

func referenceDigest(sc mom.Scale, sampled bool) string {
	b, err := referenceFS.ReadFile(referenceFile(sc, sampled))
	if err != nil {
		return "missing " + referenceFile(sc, sampled)
	}
	return digest(b)
}

// refRow is the part of a Figure 7 row the layer composition checks.
type refRow struct {
	Cycles int64
	Insts  uint64
}

type reference struct {
	exact, sampled map[string]refRow // by "app ISA/cache width"
}

func loadReference(sc mom.Scale) (*reference, error) {
	ref := &reference{}
	for _, sampled := range []bool{false, true} {
		b, err := referenceFS.ReadFile(referenceFile(sc, sampled))
		if err != nil {
			return nil, err
		}
		var doc struct {
			Rows []struct {
				App    string `json:"app"`
				Config struct {
					ISA   string `json:"isa"`
					Cache string `json:"cache"`
				} `json:"config"`
				Width  int    `json:"width"`
				Cycles int64  `json:"cycles"`
				Insts  uint64 `json:"insts"`
			} `json:"rows"`
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", referenceFile(sc, sampled), err)
		}
		rows := map[string]refRow{}
		for _, r := range doc.Rows {
			rows[fmt.Sprintf("%s %s/%s %d", r.App, r.Config.ISA, r.Config.Cache, r.Width)] = refRow{r.Cycles, r.Insts}
		}
		if sampled {
			ref.sampled = rows
		} else {
			ref.exact = rows
		}
	}
	return ref, nil
}

// recordReference writes the reference documents from the current tree.
// Run it only when a change is meant to move simulated results.
func recordReference() error {
	ctx := context.Background()
	for _, sc := range []mom.Scale{mom.ScaleTest, mom.ScaleBench} {
		for _, sampled := range []bool{false, true} {
			var sp mom.SampleSpec
			if sampled {
				sp = mom.DefaultSampleSpec
			}
			rows, err := mom.Figure7Sampled(ctx, sc, sp)
			if err != nil {
				return err
			}
			doc, err := fig7Doc(rows)
			if err != nil {
				return err
			}
			path := referenceFile(sc, sampled)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(path, doc, 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
