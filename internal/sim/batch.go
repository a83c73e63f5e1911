package sim

import (
	"fmt"

	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/workload"
)

// Batch planning: content-addressing and deduplication for lists of
// study configurations, shared by the batch API (internal/server) and
// the Runner facade. Planning is pure — no simulation work happens here —
// so a serving layer can admit, dedup, and key a whole batch before any
// compute is scheduled.

// Job kinds a batch item can carry.
const (
	// JobStudy is a deterministic scaling study (the /v1/study workload).
	JobStudy = "study"
	// JobMC is a Monte Carlo lifetime study (the /v1/study/mc workload).
	JobMC = "mc"
)

// BatchItem is one resolved study configuration inside a batch: the
// concrete inputs a study or MC run needs, plus the kind discriminator.
type BatchItem struct {
	// Kind is JobStudy or JobMC.
	Kind string
	// Config, Profiles, and Techs are the resolved study inputs.
	Config   Config
	Profiles []workload.Profile
	Techs    []scaling.Technology
	// MC is the normalized sampling configuration; read only when Kind
	// is JobMC.
	MC MCConfig
}

// Key returns the item's content address: StudyKey for a study item,
// MCStudyKey for an MC item. Two items with equal keys compute the same
// result, which is the contract batch deduplication relies on.
func (it BatchItem) Key() (string, error) {
	switch it.Kind {
	case JobStudy:
		return StudyKey(it.Config, it.Profiles, it.Techs)
	case JobMC:
		return MCStudyKey(it.Config, it.MC, it.Profiles, it.Techs)
	default:
		return "", fmt.Errorf("sim: batch: unknown job kind %q", it.Kind)
	}
}

// BatchPlan is the dedup analysis of one batch submission.
type BatchPlan struct {
	// Keys holds each item's content address, in submission order.
	Keys []string
	// First maps each item index to the index of the first item with the
	// same key; First[i] == i marks a unique item.
	First []int
	// Unique lists the indices of the distinct items, in first-seen
	// order. len(Unique) studies must run to serve the whole batch.
	Unique []int
}

// Duplicates returns the number of items deduplicated away within the
// batch.
func (p BatchPlan) Duplicates() int { return len(p.Keys) - len(p.Unique) }

// PlanBatch content-addresses every item and computes the intra-batch
// dedup mapping. It does not consult any cache: cross-batch and in-flight
// deduplication belong to the job queue and the serving layer's result
// memo, which key on the same hashes.
func PlanBatch(items []BatchItem) (BatchPlan, error) {
	plan := BatchPlan{
		Keys:  make([]string, len(items)),
		First: make([]int, len(items)),
	}
	seen := make(map[string]int, len(items))
	for i, it := range items {
		key, err := it.Key()
		if err != nil {
			return BatchPlan{}, fmt.Errorf("item %d: %w", i, err)
		}
		plan.Keys[i] = key
		if first, ok := seen[key]; ok {
			plan.First[i] = first
			continue
		}
		seen[key] = i
		plan.First[i] = i
		plan.Unique = append(plan.Unique, i)
	}
	return plan, nil
}
