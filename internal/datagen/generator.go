package datagen

import (
	"math"
	"math/rand"
	"sort"
)

// GeneratorConfig parameterizes a synthetic hourly partition.
type GeneratorConfig struct {
	// Sessions is the number of user sessions in the partition.
	Sessions int
	// MeanSamplesPerSession targets the paper's S (16.5 in §3). Session
	// sizes are drawn log-normally (sigmaSamplesPerSession), producing the
	// heavy tail of Fig 3.
	MeanSamplesPerSession float64
	// CTR is the positive-label probability.
	CTR float64
	// LabelSignal, when positive, makes labels learnable: the click
	// probability becomes sigmoid(LabelSignal·(userEffect+itemEffect)+bias)
	// where userEffect derives from the user ID and itemEffect from the
	// first item feature's leading ID. Zero keeps pure-noise CTR labels.
	// Learnable labels are needed by experiments that measure model
	// accuracy (the paper's §6.2 "Impacts to Accuracy").
	LabelSignal float64
	// Seed makes generation deterministic.
	Seed int64
}

const (
	// sigmaSamplesPerSession is the log-normal sigma of session sizes;
	// larger values fatten the tail.
	sigmaSamplesPerSession = 1.1
	// maxSamplesPerSession caps pathological session-size draws.
	maxSamplesPerSession = 4096
	// partitionSpanMicros is the time window a partition's sessions are
	// spread over: one hour.
	partitionSpanMicros = 3600 * 1e6
)

func (c GeneratorConfig) withDefaults() GeneratorConfig {
	if c.CTR == 0 {
		c.CTR = 0.05
	}
	if c.MeanSamplesPerSession == 0 {
		c.MeanSamplesPerSession = 16.5
	}
	return c
}

// Generator produces session-centric synthetic partitions for a schema.
type Generator struct {
	schema *Schema
	cfg    GeneratorConfig
	rng    *rand.Rand
}

// NewGenerator builds a deterministic generator.
func NewGenerator(schema *Schema, cfg GeneratorConfig) *Generator {
	cfg = cfg.withDefaults()
	return &Generator{schema: schema, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// sessionSize draws a samples-per-session count with the configured
// log-normal distribution, clamped to [1, maxSamplesPerSession].
func (g *Generator) sessionSize() int {
	sigma := sigmaSamplesPerSession
	// Mean of lognormal(mu, sigma) is exp(mu + sigma^2/2); solve for mu.
	mu := math.Log(g.cfg.MeanSamplesPerSession) - sigma*sigma/2
	n := int(math.Round(math.Exp(g.rng.NormFloat64()*sigma + mu)))
	if n < 1 {
		n = 1
	}
	if n > maxSamplesPerSession {
		n = maxSamplesPerSession
	}
	return n
}

func (g *Generator) freshList(f FeatureSpec) []int64 {
	// Lengths are uniform around the mean, clamped to [1, MaxLen], giving
	// E[len] == MeanLen.
	span := f.MeanLen // uniform in [MeanLen-span/2, MeanLen+span/2]
	n := f.MeanLen - span/2 + g.rng.Intn(span+1)
	if n < 1 {
		n = 1
	}
	if n > f.MaxLen {
		n = f.MaxLen
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = g.rng.Int63n(f.Cardinality)
	}
	return out
}

func (g *Generator) updateList(f FeatureSpec, cur []int64) []int64 {
	switch f.Update {
	case ShiftAppend:
		// Append one new ID; slide the window if at capacity. This creates
		// the shifted partial duplicates of §7.
		next := append([]int64(nil), cur...)
		next = append(next, g.rng.Int63n(f.Cardinality))
		if len(next) > f.MaxLen {
			next = next[len(next)-f.MaxLen:]
		}
		return next
	default:
		return g.freshList(f)
	}
}

// GeneratePartition synthesizes one hourly partition. The returned slice is
// ordered by inference timestamp, which interleaves sessions exactly as the
// paper's data generation infrastructure does ("the data generation
// infrastructure typically orders samples based on inference time", §3).
func (g *Generator) GeneratePartition() []Sample {
	var out []Sample
	for sess := 0; sess < g.cfg.Sessions; sess++ {
		out = append(out, g.generateSession(int64(sess+1))...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Timestamp < out[j].Timestamp })
	return out
}

// generateSession produces the samples of one session. Feature values
// persist across the session's samples and change with each feature's
// ChangeProb, generating the duplication structure of §3.
func (g *Generator) generateSession(sessionID int64) []Sample {
	n := g.sessionSize()
	userID := g.rng.Int63n(1 << 40)

	// Impression timestamps are uniform over the partition window (a
	// session is the set of a user's impressions within the fixed window,
	// paper §3 fn. 1). With many concurrent sessions this interleaves the
	// inference-time-ordered stream so heavily that a 4096-sample batch
	// sees ~1 sample per session, matching Fig 3 (right).
	times := make([]int64, n)
	for i := range times {
		times[i] = g.rng.Int63n(partitionSpanMicros)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })

	cur := make([][]int64, len(g.schema.Sparse))
	for fi, f := range g.schema.Sparse {
		cur[fi] = g.freshList(f)
	}

	samples := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			// Features in the same SyncGroup share one uniform draw per
			// step, so equal-ChangeProb group members change together —
			// the synchronous-update property grouped IKJTs exploit.
			groupDraws := make(map[string]float64)
			for fi, f := range g.schema.Sparse {
				var u float64
				if f.SyncGroup != "" {
					v, ok := groupDraws[f.SyncGroup]
					if !ok {
						v = g.rng.Float64()
						groupDraws[f.SyncGroup] = v
					}
					u = v
				} else {
					u = g.rng.Float64()
				}
				if u < f.ChangeProb {
					cur[fi] = g.updateList(f, cur[fi])
				}
			}
		}
		sp := make([][]int64, len(cur))
		copy(sp, cur) // value lists are immutable once emitted; share them
		dense := make([]float32, g.schema.Dense)
		for d := range dense {
			dense[d] = g.rng.Float32()
		}
		label := int8(0)
		if g.cfg.LabelSignal > 0 {
			p := g.clickProbability(userID, sp)
			if g.rng.Float64() < p {
				label = 1
			}
		} else if g.rng.Float64() < g.cfg.CTR {
			label = 1
		}
		samples = append(samples, Sample{
			SessionID: sessionID,
			UserID:    userID,
			RequestID: g.rng.Int63(),
			Timestamp: times[i],
			Sparse:    sp,
			Dense:     dense,
			Label:     label,
		})
	}
	return samples
}

// clickProbability computes the learnable label model: a logistic over a
// user effect and an item effect, centered so the base rate stays near
// CTR. Effects are deterministic hashes of IDs, so a model with enough
// embedding capacity can learn them — and can overfit tail IDs, which is
// the mechanism behind the paper's clustering-accuracy observation.
func (g *Generator) clickProbability(userID int64, sparse [][]int64) float64 {
	signed := func(v int64) float64 {
		x := uint64(v) * 0x9E3779B97F4A7C15
		x ^= x >> 33
		return float64(int64(x)) / float64(math.MaxInt64) // in [-1, 1]
	}
	// Both effects derive from observable feature values so the model can
	// learn them: the user effect from the leading ID of the first user
	// feature (a huge ID space — memorizable on train users, unseen for
	// held-out users), the item effect from the first item feature (a
	// small ID space — generalizes).
	userEffect := signed(userID)
	itemEffect := 0.0
	haveUser := false
	for fi, f := range g.schema.Sparse {
		if f.Class == UserFeature && !haveUser && len(sparse[fi]) > 0 {
			userEffect = signed(sparse[fi][0])
			haveUser = true
		}
		if f.Class == ItemFeature && itemEffect == 0 && len(sparse[fi]) > 0 {
			itemEffect = signed(sparse[fi][0])
		}
	}
	base := math.Log(g.cfg.CTR / (1 - g.cfg.CTR))
	z := base + g.cfg.LabelSignal*(userEffect+itemEffect)
	return 1 / (1 + math.Exp(-z))
}
