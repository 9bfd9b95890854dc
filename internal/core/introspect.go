package core

// Live graph introspection: the structured view of the match table that
// the graph doctor (internal/obs/live) turns into stall reports. A wedged
// TTG graph manifests as shells that accumulated some but not all of
// their inputs; this file classifies each pending shell by which input
// terminals are unfilled, which edge feeds each of them, and which
// producer template (and likely rank) should have sent the missing
// message.

// ProducerRef names one output terminal that feeds a missing input's
// edge, with a best-effort guess of the rank that runs the producer for
// the stalled key.
type ProducerRef struct {
	TT   string
	Term int
	// Rank is the producer's keymap applied to the consumer's key — a
	// same-key heuristic, valid whenever producer and consumer share a key
	// type (the common TTG pattern). -1 when the keymap rejects the key.
	Rank int
}

// MissingInput describes one unfilled input terminal of a pending shell.
type MissingInput struct {
	Term      int
	Edge      string
	Streaming bool
	// Got/Want are stream progress for streaming terminals (Want -1 means
	// the stream length was never announced).
	Got, Want int
	Producers []ProducerRef
}

// PendingTask is one partially matched task instance.
type PendingTask struct {
	TT      string
	TTID    int
	Key     string
	KeyVal  Key
	Missing []MissingInput
}

// PendingTaskCount reports the number of partially matched shells across
// all templates without taking any shard lock (each table mirrors its
// size in an atomic; key boxes are swept).
func (g *Graph) PendingTaskCount() int64 {
	var n int64
	for _, tt := range g.tts {
		n += tt.pending()
	}
	return n
}

// PendingTasks snapshots and classifies up to maxPerTT pending shells per
// template (all of them when maxPerTT <= 0). Shard locks are held only
// while copying raw fill state; classification — edge lookup, producer
// blame, key formatting — runs unlocked. The returned total counts every
// pending shell, including ones beyond the maxPerTT sample.
func (g *Graph) PendingTasks(maxPerTT int) (tasks []PendingTask, total int64) {
	for _, tt := range g.tts {
		total += tt.pending()
		states := tt.match.collect(maxPerTT)
		if tt.dense != nil {
			states = tt.dense.collect(g, maxPerTT, states)
		}
		for _, st := range states {
			tasks = append(tasks, tt.classify(st))
		}
	}
	return tasks, total
}

// classify turns one shell snapshot into a PendingTask with blame edges.
func (tt *TT) classify(st shellState) PendingTask {
	pt := PendingTask{
		TT:     tt.name,
		TTID:   tt.id,
		Key:    st.key.String(),
		KeyVal: st.key,
	}
	for term := range tt.inputs {
		if st.satisfied&(1<<uint(term)) != 0 {
			continue
		}
		in := &tt.inputs[term]
		mi := MissingInput{Term: term, Streaming: in.Reducer != nil}
		if in.Edge != nil {
			mi.Edge = in.Edge.name
			for _, p := range in.Edge.producers {
				mi.Producers = append(mi.Producers, ProducerRef{
					TT:   p.tt.name,
					Term: p.term,
					Rank: safeOwner(p.tt, st.key),
				})
			}
		}
		if mi.Streaming {
			mi.Got = st.counts[term]
			mi.Want = st.targets[term]
		}
		pt.Missing = append(pt.Missing, mi)
	}
	return pt
}

// safeOwner applies a template's keymap to a key that may not be of the
// template's key type (producer and consumer templates can use different
// ID tuples); a panicking keymap yields -1 rather than taking down the
// diagnostic path.
func safeOwner(tt *TT, key Key) (rank int) {
	defer func() {
		if recover() != nil {
			rank = -1
		}
	}()
	return tt.keymap(key)
}
