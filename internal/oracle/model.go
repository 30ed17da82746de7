package oracle

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/grouping"
	"repro/internal/topology"
)

// This file defines the abstract protocol model the exhaustive checker
// explores: a compressed rendition of the directory/cache/invalidation
// state machine of internal/coherence with timing collapsed away. Protocol
// handlers run atomically at message delivery; controller-queue and
// in-flight latencies survive as nondeterministic delivery order, which is
// a superset of every schedule the timed simulator can produce. There are
// no writebacks (caches are unbounded, in the machine as in the paper), and
// the home's per-block transaction queue is modeled as deliver-when-free,
// an any-order superset of the real FIFO.

// Model bounds: the abstract state uses fixed-size arrays and 16-bit node
// masks.
const (
	modelMaxNodes  = 8
	modelMaxBlocks = 2
)

// Mutation selects a deliberately seeded protocol bug, used to prove the
// checker finds real violations (and pinned by tests).
type Mutation int

const (
	// MutNone checks the faithful model.
	MutNone Mutation = iota
	// MutCountAcks judges transaction completion by counting acknowledgment
	// arrivals instead of draining the unacked-sharer set: the ack-dedup
	// bug. A sharer acknowledged in two generations (its original ack
	// surviving an abort alongside its retry ack) double-counts, granting
	// exclusivity while another sharer still holds the line.
	MutCountAcks
	// MutSkipInvalidate acknowledges invalidations without invalidating the
	// local copy: the stale-sharer bug, violating exclusive isolation on
	// the very first write to a shared block.
	MutSkipInvalidate
	numMutations
)

var mutationNames = [numMutations]string{"none", "count-acks", "skip-invalidate"}

func (mu Mutation) String() string {
	if mu >= 0 && mu < numMutations {
		return mutationNames[mu]
	}
	panic("oracle: unknown mutation")
}

// ParseMutation returns the mutation with the given name.
func ParseMutation(name string) (Mutation, error) {
	for i, n := range mutationNames {
		if n == name {
			return Mutation(i), nil
		}
	}
	return 0, fmt.Errorf("oracle: unknown mutation %q", name)
}

// ModelConfig bounds one exhaustive exploration.
type ModelConfig struct {
	// Width, Height select the mesh (at most modelMaxNodes nodes).
	Width, Height int
	// Blocks is the number of shared blocks (1 or 2).
	Blocks int
	// Scheme selects the invalidation framework under test.
	Scheme grouping.Scheme
	// OpsPerNode bounds how many operations each node may issue.
	OpsPerNode int
	// MaxTimeouts bounds how many i-ack deadline firings (spurious or
	// fault-induced) the exploration branches on; 0 disables the recovery
	// layer entirely, which also verifies primary-path liveness.
	MaxTimeouts int
	// MaxDrops bounds fault events: expendable-worm kills and lost i-ack
	// posts. Requires MaxTimeouts > 0 (recovery is the only way back).
	MaxDrops int
	// Mutation seeds a deliberate protocol bug (default MutNone).
	Mutation Mutation
	// MaxStates aborts the exploration beyond this many states
	// (default 4,000,000).
	MaxStates int
}

func (c ModelConfig) withDefaults() ModelConfig {
	if c.Width == 0 && c.Height == 0 {
		c.Width, c.Height = 2, 2
	}
	if c.Blocks == 0 {
		c.Blocks = 2
	}
	if c.OpsPerNode == 0 {
		c.OpsPerNode = 1
	}
	if c.MaxStates == 0 {
		c.MaxStates = 4_000_000
	}
	return c
}

func (c ModelConfig) validate() error {
	nodes := c.Width * c.Height
	if c.Width < 2 || c.Height < 1 || nodes < 2 || nodes > modelMaxNodes {
		return fmt.Errorf("oracle: model mesh %dx%d out of range (2..%d nodes)",
			c.Width, c.Height, modelMaxNodes)
	}
	if c.Blocks < 1 || c.Blocks > modelMaxBlocks {
		return fmt.Errorf("oracle: model blocks %d out of range (1..%d)", c.Blocks, modelMaxBlocks)
	}
	if c.OpsPerNode < 1 || c.OpsPerNode > 3 {
		return fmt.Errorf("oracle: OpsPerNode %d out of range (1..3)", c.OpsPerNode)
	}
	if c.MaxDrops > 0 && c.MaxTimeouts == 0 {
		return fmt.Errorf("oracle: MaxDrops without MaxTimeouts would wedge (no recovery path)")
	}
	if c.Mutation < 0 || c.Mutation >= numMutations {
		return fmt.Errorf("oracle: unknown mutation %d", int(c.Mutation))
	}
	return nil
}

// String is the config's deterministic fingerprint, used in reports.
func (c ModelConfig) String() string {
	return fmt.Sprintf("%dx%d %v blocks=%d ops=%d timeouts=%d drops=%d mutation=%v",
		c.Width, c.Height, c.Scheme, c.Blocks, c.OpsPerNode, c.MaxTimeouts, c.MaxDrops, c.Mutation)
}

// Abstract cache-line and directory states.
type lineSt uint8

const (
	lineI lineSt = iota
	lineS
	lineM
)

var lineNames = [...]string{"I", "S", "M"}

func (s lineSt) String() string { return lineNames[s] }

type dirSt uint8

const (
	dirU dirSt = iota
	dirS
	dirE
	dirW
)

var dirNames = [...]string{"U", "S", "E", "W"}

func (s dirSt) String() string { return dirNames[s] }

// mtyp enumerates abstract message types.
type mtyp uint8

const (
	mReadReq mtyp = iota
	mWriteReq
	mInval // unicast invalidation: UI-UA original or any scheme's retry
	mInvalAck
	mMWorm // multidestination invalidation worm, delivered member by member
	mGather
	mFetchReq
	mFetchInval
	mFetchReply
	mReadReply
	mWriteReply
	numMtyp
)

var mtypNames = [numMtyp]string{
	"readReq", "writeReq", "inval", "invalAck", "worm", "gather",
	"fetchReq", "fetchInval", "fetchReply", "readReply", "writeReply",
}

func (t mtyp) String() string {
	if t < numMtyp {
		return mtypNames[t]
	}
	panic("oracle: unknown message type")
}

// mmsg is one in-flight abstract message. For mMWorm, to is unused and pos
// indexes the next group member to visit; for everything else to is the
// delivery node. epoch stamps invalidation-transaction traffic (0 = none).
type mmsg struct {
	typ   mtyp
	from  uint8
	to    uint8
	block uint8
	epoch uint16
	gen   uint8
	gi    uint8
	pos   uint8
	retry bool
}

// mdir is one block's directory entry plus the home-side fetch context.
type mdir struct {
	st         dirSt
	owner      uint8
	shr        uint16
	fetch      bool
	fetchWrite bool
	fetchReq   uint8
	fetchOwner uint8
}

// mtxn is one block's active invalidation transaction (at most one per
// block: the home's queue serializes them). epoch distinguishes this
// transaction's traffic from a predecessor's stragglers, standing in for
// the real implementation's per-transaction identity.
type mtxn struct {
	active      bool
	epoch       uint16
	home        uint8
	requester   uint8
	remote      uint16 // original remote sharer mask
	unacked     uint16
	mustPost    uint16 // invalidated, i-ack post still queued at the member
	posted      uint16 // i-ack posts sitting in buffer entries
	homePending bool
	gen         uint8
	acks        uint8 // MutCountAcks bookkeeping
}

// mop is one node's pending processor operation. dinval marks a
// directory-targeted invalidation that arrived while the read's fill was
// in flight and was deferred past it (the model's mirror of sharerInval's
// afterFill deferral): when the fill lands, the line is installed, then
// invalidated, and the acknowledgment duty the sharer owed — unicast ack,
// i-ack post, or the gather launch for group dgi when dlast — is
// performed, all stamped with the deferring transaction's depoch. squash
// marks a read miss caught by a retried invalidation instead: its fill is
// consumed on arrival without installing the line.
type mop struct {
	active bool
	write  bool
	squash bool
	dinval bool
	dlast  bool
	block  uint8
	dgi    uint8
	depoch uint16
}

// mstate is the full abstract machine state.
type mstate struct {
	cache    [modelMaxNodes][modelMaxBlocks]lineSt
	dir      [modelMaxBlocks]mdir
	op       [modelMaxNodes]mop
	used     [modelMaxNodes]uint8
	txn      [modelMaxBlocks]mtxn
	epoch    [modelMaxBlocks]uint16
	msgs     []mmsg
	timeouts uint8
	drops    uint8
}

func (st *mstate) clone() mstate {
	ns := *st
	ns.msgs = append([]mmsg(nil), st.msgs...)
	return ns
}

func (st *mstate) addMsg(m mmsg) { st.msgs = append(st.msgs, m) }

func (st *mstate) removeMsg(i int) {
	st.msgs = append(st.msgs[:i:i], st.msgs[i+1:]...)
}

// mgroup is one worm group derived from grouping.Groups: member node ids in
// visit order plus the masks the gather machinery needs.
type mgroup struct {
	members []uint8
	mask    uint16
	preMask uint16 // every member but the launcher (the last)
}

// model carries the immutable exploration context.
type model struct {
	cfg    ModelConfig
	nodes  int
	mesh   *topology.Mesh
	homeOf [modelMaxBlocks]uint8
	groups map[uint32][]mgroup
}

func newModel(cfg ModelConfig) *model {
	md := &model{
		cfg:    cfg,
		nodes:  cfg.Width * cfg.Height,
		mesh:   topology.NewMesh(cfg.Width, cfg.Height),
		groups: make(map[uint32][]mgroup),
	}
	for b := 0; b < cfg.Blocks; b++ {
		md.homeOf[b] = uint8(b % md.nodes)
	}
	return md
}

// groupsFor memoizes the scheme's partition of a remote-sharer mask into
// worm groups, reusing the real grouping algorithms verbatim.
func (md *model) groupsFor(home uint8, remote uint16) []mgroup {
	key := uint32(home)<<16 | uint32(remote)
	if g, ok := md.groups[key]; ok {
		return g
	}
	var sharers []topology.NodeID
	for n := 0; n < md.nodes; n++ {
		if remote&(1<<uint(n)) != 0 {
			sharers = append(sharers, topology.NodeID(n))
		}
	}
	gs := grouping.Groups(md.cfg.Scheme, md.mesh, topology.NodeID(home), sharers)
	out := make([]mgroup, len(gs))
	for i, g := range gs {
		mg := mgroup{members: make([]uint8, len(g.Members))}
		for j, mem := range g.Members {
			mg.members[j] = uint8(mem)
			mg.mask |= 1 << uint(mem)
			if j < len(g.Members)-1 {
				mg.preMask |= 1 << uint(mem)
			}
		}
		out[i] = mg
	}
	md.groups[key] = out
	return out
}

func (md *model) initial() mstate {
	return mstate{}
}

// sortMsgs puts the message multiset into canonical order, so states that
// differ only in message bookkeeping order hash identically.
func sortMsgs(msgs []mmsg) {
	sort.Slice(msgs, func(i, j int) bool {
		a, b := msgs[i], msgs[j]
		if a.typ != b.typ {
			return a.typ < b.typ
		}
		if a.block != b.block {
			return a.block < b.block
		}
		if a.epoch != b.epoch {
			return a.epoch < b.epoch
		}
		if a.from != b.from {
			return a.from < b.from
		}
		if a.to != b.to {
			return a.to < b.to
		}
		if a.gi != b.gi {
			return a.gi < b.gi
		}
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		if a.gen != b.gen {
			return a.gen < b.gen
		}
		return !a.retry && b.retry
	})
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// encode canonicalizes st (sorting its messages in place) and renders it as
// a compact byte-string key that decode inverts exactly.
func (md *model) encode(st *mstate) string {
	sortMsgs(st.msgs)
	buf := make([]byte, 0, 64+10*len(st.msgs))
	for n := 0; n < md.nodes; n++ {
		for b := 0; b < md.cfg.Blocks; b++ {
			buf = append(buf, byte(st.cache[n][b]))
		}
		op := st.op[n]
		buf = append(buf, boolByte(op.active)|boolByte(op.write)<<1|boolByte(op.squash)<<2|
			boolByte(op.dinval)<<3|boolByte(op.dlast)<<4,
			op.block, st.used[n], op.dgi, byte(op.depoch), byte(op.depoch>>8))
	}
	for b := 0; b < md.cfg.Blocks; b++ {
		d := st.dir[b]
		buf = append(buf, byte(d.st), d.owner, byte(d.shr), byte(d.shr>>8),
			boolByte(d.fetch)|boolByte(d.fetchWrite)<<1, d.fetchReq, d.fetchOwner)
		t := st.txn[b]
		buf = append(buf, boolByte(t.active)|boolByte(t.homePending)<<1,
			byte(t.epoch), byte(t.epoch>>8), t.home, t.requester,
			byte(t.remote), byte(t.remote>>8),
			byte(t.unacked), byte(t.unacked>>8),
			byte(t.mustPost), byte(t.mustPost>>8),
			byte(t.posted), byte(t.posted>>8),
			t.gen, t.acks,
			byte(st.epoch[b]), byte(st.epoch[b]>>8))
	}
	buf = append(buf, st.timeouts, st.drops, byte(len(st.msgs)))
	for _, m := range st.msgs {
		buf = append(buf, byte(m.typ), m.from, m.to, m.block,
			byte(m.epoch), byte(m.epoch>>8), m.gen, m.gi, m.pos, boolByte(m.retry))
	}
	return string(buf)
}

func (md *model) decode(key string) mstate {
	var st mstate
	buf := []byte(key)
	i := 0
	for n := 0; n < md.nodes; n++ {
		for b := 0; b < md.cfg.Blocks; b++ {
			st.cache[n][b] = lineSt(buf[i])
			i++
		}
		st.op[n] = mop{active: buf[i]&1 != 0, write: buf[i]&2 != 0, squash: buf[i]&4 != 0,
			dinval: buf[i]&8 != 0, dlast: buf[i]&16 != 0,
			block: buf[i+1], dgi: buf[i+3],
			depoch: uint16(buf[i+4]) | uint16(buf[i+5])<<8}
		st.used[n] = buf[i+2]
		i += 6
	}
	for b := 0; b < md.cfg.Blocks; b++ {
		st.dir[b] = mdir{
			st: dirSt(buf[i]), owner: buf[i+1],
			shr:   uint16(buf[i+2]) | uint16(buf[i+3])<<8,
			fetch: buf[i+4]&1 != 0, fetchWrite: buf[i+4]&2 != 0,
			fetchReq: buf[i+5], fetchOwner: buf[i+6],
		}
		i += 7
		st.txn[b] = mtxn{
			active: buf[i]&1 != 0, homePending: buf[i]&2 != 0,
			epoch: uint16(buf[i+1]) | uint16(buf[i+2])<<8,
			home:  buf[i+3], requester: buf[i+4],
			remote:   uint16(buf[i+5]) | uint16(buf[i+6])<<8,
			unacked:  uint16(buf[i+7]) | uint16(buf[i+8])<<8,
			mustPost: uint16(buf[i+9]) | uint16(buf[i+10])<<8,
			posted:   uint16(buf[i+11]) | uint16(buf[i+12])<<8,
			gen:      buf[i+13], acks: buf[i+14],
		}
		st.epoch[b] = uint16(buf[i+15]) | uint16(buf[i+16])<<8
		i += 17
	}
	st.timeouts, st.drops = buf[i], buf[i+1]
	count := int(buf[i+2])
	i += 3
	st.msgs = make([]mmsg, count)
	for k := 0; k < count; k++ {
		st.msgs[k] = mmsg{
			typ: mtyp(buf[i]), from: buf[i+1], to: buf[i+2], block: buf[i+3],
			epoch: uint16(buf[i+4]) | uint16(buf[i+5])<<8,
			gen:   buf[i+6], gi: buf[i+7], pos: buf[i+8], retry: buf[i+9] != 0,
		}
		i += 10
	}
	if i != len(buf) {
		panic("oracle: state decode length mismatch")
	}
	return st
}

// checkState returns the first per-state safety violation, or "". These are
// the invariants that hold at every instant of a correct execution (the
// RelaxedInvariants rules of internal/coherence, specialized to the
// writeback-free model).
func (md *model) checkState(st *mstate) string {
	for b := 0; b < md.cfg.Blocks; b++ {
		writer, valid := -1, 0
		for n := 0; n < md.nodes; n++ {
			switch st.cache[n][b] {
			case lineM:
				if writer >= 0 {
					return fmt.Sprintf("block %d modified at both node %d and node %d", b, writer, n)
				}
				writer = n
				valid++
			case lineS:
				valid++
			case lineI:
			}
		}
		if writer >= 0 && valid > 1 {
			return fmt.Sprintf("block %d modified at node %d alongside %d other valid copies",
				b, writer, valid-1)
		}
		d := &st.dir[b]
		switch d.st {
		case dirE:
			for n := 0; n < md.nodes; n++ {
				if uint8(n) != d.owner && st.cache[n][b] != lineI {
					return fmt.Sprintf("block %d exclusive at node %d but node %d holds %v",
						b, d.owner, n, st.cache[n][b])
				}
			}
		case dirU:
			for n := 0; n < md.nodes; n++ {
				if st.cache[n][b] != lineI {
					return fmt.Sprintf("block %d uncached but node %d holds %v", b, n, st.cache[n][b])
				}
			}
		case dirS:
			for n := 0; n < md.nodes; n++ {
				if st.cache[n][b] == lineM {
					return fmt.Sprintf("block %d shared but node %d holds it modified", b, n)
				}
				if st.cache[n][b] == lineS && d.shr&(1<<uint(n)) == 0 {
					return fmt.Sprintf("block %d cached shared at node %d but absent from presence bits", b, n)
				}
			}
		case dirW:
			// Transient: covered by the single-writer check above.
		}
	}
	return ""
}

// checkTerminal returns the violation a state with no enabled transitions
// exhibits, or "". A clean terminal has every operation retired, every
// transaction completed, no fetch context and an empty network.
func (md *model) checkTerminal(st *mstate) string {
	for n := 0; n < md.nodes; n++ {
		if st.op[n].active {
			return fmt.Sprintf("lost grant: node %d's operation on block %d still pending at termination",
				n, st.op[n].block)
		}
	}
	for b := 0; b < md.cfg.Blocks; b++ {
		if st.txn[b].active {
			return fmt.Sprintf("transaction on block %d still open at termination (%d sharers unacked)",
				b, bits.OnesCount16(st.txn[b].unacked))
		}
		if st.dir[b].st == dirW {
			return fmt.Sprintf("block %d stuck in waiting state", b)
		}
		if st.dir[b].st == dirE && st.cache[st.dir[b].owner][b] != lineM {
			return fmt.Sprintf("block %d exclusive at node %d but owner holds %v at termination",
				b, st.dir[b].owner, st.cache[st.dir[b].owner][b])
		}
	}
	if len(st.msgs) != 0 {
		return fmt.Sprintf("%d messages still in flight at termination", len(st.msgs))
	}
	return ""
}

// formatState renders a state dump for counterexample traces.
func (md *model) formatState(st *mstate) string {
	out := ""
	for b := 0; b < md.cfg.Blocks; b++ {
		d := &st.dir[b]
		out += fmt.Sprintf("  block %d: dir=%v owner=%d sharers=%s caches=[", b, d.st, d.owner,
			maskString(d.shr, md.nodes))
		for n := 0; n < md.nodes; n++ {
			if n > 0 {
				out += " "
			}
			out += st.cache[n][b].String()
		}
		out += "]"
		if t := &st.txn[b]; t.active {
			out += fmt.Sprintf(" txn#%d gen=%d unacked=%s posted=%s",
				t.epoch, t.gen, maskString(t.unacked, md.nodes), maskString(t.posted, md.nodes))
		}
		out += "\n"
	}
	for _, m := range st.msgs {
		out += fmt.Sprintf("  in flight: %s\n", md.formatMsg(&m))
	}
	return out
}

func (md *model) formatMsg(m *mmsg) string {
	switch m.typ {
	case mMWorm:
		return fmt.Sprintf("worm b%d txn#%d group %d pos %d", m.block, m.epoch, m.gi, m.pos)
	case mGather:
		return fmt.Sprintf("gather b%d txn#%d group %d", m.block, m.epoch, m.gi)
	case mInval:
		kind := "inval"
		if m.retry {
			kind = "retry inval"
		}
		return fmt.Sprintf("%s b%d txn#%d gen%d -> node %d", kind, m.block, m.epoch, m.gen, m.to)
	case mInvalAck:
		return fmt.Sprintf("invalAck b%d txn#%d from node %d", m.block, m.epoch, m.from)
	case mReadReq, mWriteReq, mFetchReq, mFetchInval, mFetchReply, mReadReply, mWriteReply:
		return fmt.Sprintf("%v b%d node %d -> node %d", m.typ, m.block, m.from, m.to)
	default:
		panic("oracle: unknown message type")
	}
}

func maskString(mask uint16, nodes int) string {
	out := "{"
	first := true
	for n := 0; n < nodes; n++ {
		if mask&(1<<uint(n)) == 0 {
			continue
		}
		if !first {
			out += ","
		}
		out += fmt.Sprint(n)
		first = false
	}
	return out + "}"
}
