package proto

import "fmt"

// The protocol as data: every controller decision is a row of guarded
// actions. An interpreter evaluates the rules of the matching table entry
// in order, fires the first rule whose guard holds, and executes that
// rule's actions left to right. A matching rule with no actions is an
// explicit "ignore" (stale message); no matching rule at all is a protocol
// error and the interpreter must panic.
//
// The tables are plain package-level arrays indexed by small enums, built
// once at package init and validated there, so interpreting them costs one
// array index plus a short rule scan per event — no maps, no interface
// calls, no per-event allocation.

// Prep names the cache-array probe an entry performs before its guards are
// evaluated; the probed line (if any) is the guards' and actions' operand.
type Prep uint8

const (
	PrepNone   Prep = iota // no probe
	PrepLookup             // probing counts as a use (touches LRU state)
	PrepPeek               // silent probe
)

// String returns the probe name used in the table dump.
func (p Prep) String() string {
	switch p {
	case PrepNone:
		return "none"
	case PrepLookup:
		return "lookup"
	case PrepPeek:
		return "peek"
	}
	return fmt.Sprintf("prep(%d)", uint8(p))
}

// CacheGuard is a predicate over the cache controller's local view: the
// probed line, the outstanding transaction, the incoming message, and the
// system configuration.
type CacheGuard uint8

const (
	GAlways     CacheGuard = iota
	GHit                   // probed line present
	GOwned                 // probed line present and exclusive
	GNotOwned              // no probed line, or not exclusive
	GLLHintFail            // last load_linked returned a beyond-limit hint
	GNoResv                // no matching cache-side LL reservation
	GCASRemote             // configured CAS variant compares at home/owner
	GCASMatch              // owned line's word equals the forwarded expected value
	GCASShare              // configured CAS variant is INVs
	GOpRead                // transaction op is load / load_exclusive
	GOpLL                  // transaction op is load_linked
	GOpSC                  // transaction op is store_conditional

	numCacheGuards = 12
)

var cacheGuardNames = [numCacheGuards]string{
	GAlways: "always", GHit: "hit", GOwned: "owned", GNotOwned: "not-owned",
	GLLHintFail: "ll-hint-fail", GNoResv: "no-resv", GCASRemote: "cas-remote",
	GCASMatch: "cas-match", GCASShare: "cas-share", GOpRead: "op-read",
	GOpLL: "op-ll", GOpSC: "op-sc",
}

// String returns the guard name used in the table dump.
func (g CacheGuard) String() string {
	if int(g) < len(cacheGuardNames) {
		return cacheGuardNames[g]
	}
	return fmt.Sprintf("guard(%d)", uint8(g))
}

// CacheAct is one step of a cache-controller rule. The vocabulary is
// closed: send a message, fill/evict/downgrade a line, manage the
// reservation, record reply state, or complete the transaction.
type CacheAct uint8

const (
	// Transaction starts.
	ACompleteOK   CacheAct = iota // complete {OK:true}; no network traffic
	ACompleteFail                 // complete {OK:false}; no network traffic
	ACompleteHit                  // track a read and complete with the line's word
	ACountSCFail                  // count a store_conditional failed locally
	AClearLLHint                  // consume the beyond-limit failure hint
	ASetResv                      // set the cache-side LL reservation
	ASendHome                     // send the request (Msg operand) to the home
	ALocalExec                    // execute on the owned line and complete
	AEvictLine                    // drop any copy, notifying home (write-back or hint)
	ADropShared                   // drop the shared copy and send the drop hint

	// Incoming coherence traffic.
	AInvalLine     // invalidate the copy (must not be exclusive)
	AAckRequester  // acknowledge (Msg operand) to the message's requester
	ASurrenderE    // recall-e, or a forwarded CAS that matched: reply wb-recall with data, invalidate
	ASurrenderS    // recall-s, or a forwarded INVs CAS that failed: reply wb-share with data, downgrade
	ASendRecallNak // copy already gone: recall-nak to the home, immediately
	ACASDeny       // forwarded INVd CAS failed: cas-fail to requester, cas-rel to home
	AApplyUpdate   // write the update's word into the present copy

	// Replies to the outstanding transaction.
	ACountNak        // count a negative acknowledgment
	ARetry           // re-dispatch the transaction after backoff
	ABumpAck         // one invalidation/update acknowledgment arrived
	AMergeChain      // fold the message's serialized-chain length into the txn
	AGrant           // grant arrived; expect the message's ack count
	AFillShared      // insert the block shared read-only
	AFillIfData      // insert shared read-only when the reply carries data
	AFillExclusive   // insert the block exclusive read-write
	ASCApply         // apply the validated conditional store on the granted line
	AExecLine        // execute the op on the granted line, stash the result
	AHintIfLL        // record the beyond-limit hint for a load_linked
	AStashReply      // track and stash the reply's value/ok/serial/hint
	ACompleteData    // track a read and complete with the reply's data word
	ACompleteCASFail // track and complete {reply value, OK:false}
	ACompleteSCFail  // clear the reservation and complete {OK:false}
	ACompleteReply   // track and complete with the reply's value/ok/serial/hint
	AMaybeFinish     // deliver the stashed result once grant and acks are in

	numCacheActs = 34
)

var cacheActNames = [numCacheActs]string{
	ACompleteOK: "complete-ok", ACompleteFail: "complete-fail",
	ACompleteHit: "complete-hit", ACountSCFail: "count-sc-fail",
	AClearLLHint: "clear-ll-hint", ASetResv: "set-resv",
	ASendHome: "send-home", ALocalExec: "local-exec",
	AEvictLine: "evict-line", ADropShared: "drop-shared",
	AInvalLine: "inval-line", AAckRequester: "ack-requester",
	ASurrenderE: "surrender-e", ASurrenderS: "surrender-s",
	ASendRecallNak: "send-recall-nak", ACASDeny: "cas-deny",
	AApplyUpdate: "apply-update", ACountNak: "count-nak", ARetry: "retry",
	ABumpAck: "bump-ack", AMergeChain: "merge-chain", AGrant: "grant",
	AFillShared: "fill-shared", AFillIfData: "fill-if-data",
	AFillExclusive: "fill-exclusive", ASCApply: "sc-apply",
	AExecLine: "exec-line", AHintIfLL: "hint-if-ll",
	AStashReply: "stash-reply", ACompleteData: "complete-data",
	ACompleteCASFail: "complete-cas-fail", ACompleteSCFail: "complete-sc-fail",
	ACompleteReply: "complete-reply", AMaybeFinish: "maybe-finish",
}

// String returns the action name used in the table dump.
func (a CacheAct) String() string {
	if int(a) < len(cacheActNames) {
		return cacheActNames[a]
	}
	return fmt.Sprintf("act(%d)", uint8(a))
}

// Act is one action with its message-kind operand (ASendHome, AAckRequester,
// HRecall); zero otherwise.
type Act struct {
	Do  CacheAct
	Msg MsgKind
}

// Rule pairs a guard with the actions to run when it is the first to hold.
type Rule struct {
	Guard   CacheGuard
	Actions []Act
}

// StartSpec is a cache-start table entry: the probe to perform, then the
// rules to evaluate.
type StartSpec struct {
	Prep  Prep
	Rules []Rule
}

// RecvSpec is a cache-receive table entry. NeedTxn entries are replies: the
// controller's single outstanding transaction must exist and match the
// message's block.
type RecvSpec struct {
	NeedTxn bool
	Prep    Prep
	Rules   []Rule
}

// act builds an operand-free action.
func act(a CacheAct) Act { return Act{Do: a} }

// msgAct builds an action carrying a message-kind operand.
func msgAct(a CacheAct, k MsgKind) Act { return Act{Do: a, Msg: k} }

// CacheStart maps (policy, processor op) to the controller's dispatch rules.
// A zero entry (no rules) marks an op the policy cannot start and panics in
// the interpreter.
var CacheStart [NumPolicies][NumOps]StartSpec

// CacheRecv maps an incoming message kind to the cache controller's rules.
var CacheRecv [NumMsgKinds]RecvSpec

// HomeState indexes the home request table: the directory state of the
// block, or HBusy when a transaction holds it.
type HomeState uint8

const (
	HBusy HomeState = iota
	HUnowned
	HShared
	HExclusive

	// NumHomeStates bounds arrays indexed by HomeState.
	NumHomeStates = 4
)

// String returns the state name used in the table dump.
func (s HomeState) String() string {
	switch s {
	case HBusy:
		return "busy"
	case HUnowned:
		return "unowned"
	case HShared:
		return "shared"
	case HExclusive:
		return "exclusive"
	}
	return fmt.Sprintf("hstate(%d)", uint8(s))
}

// HomeGuard is a predicate over the home's view: the directory entry, the
// busy record, the memory word, and the configuration.
type HomeGuard uint8

const (
	HGAlways        HomeGuard = iota
	HGOwnerIsReq              // directory owner is the requester itself
	HGSharerHasReq            // requester is among the recorded sharers
	HGCASMatch                // memory word equals the CAS expected value
	HGCASShare                // configured CAS variant is INVs
	HGBusyBlock               // a transaction holds the block
	HGFromOwnerOrig           // busy, sender is the owner, a request is retained
	HGFromOwner               // busy and the sender is the owner

	numHomeGuards = 8
)

var homeGuardNames = [numHomeGuards]string{
	HGAlways: "always", HGOwnerIsReq: "owner-is-req",
	HGSharerHasReq: "sharer-has-req", HGCASMatch: "cas-match",
	HGCASShare: "cas-share", HGBusyBlock: "busy-block",
	HGFromOwnerOrig: "from-owner-orig", HGFromOwner: "from-owner",
}

// String returns the guard name used in the table dump.
func (g HomeGuard) String() string {
	if int(g) < len(homeGuardNames) {
		return homeGuardNames[g]
	}
	return fmt.Sprintf("hguard(%d)", uint8(g))
}

// HomeAct is one step of a home-controller rule.
type HomeAct uint8

const (
	HNak           HomeAct = iota // negative-acknowledge the request
	HShareReply                   // record the sharer and reply data-s with the block
	HGrantE                       // invalidate other sharers, record owner, reply data-e
	HGrantESC                     // HGrantE marked as a store_conditional success
	HRecall                       // go busy, retain the request, forward (Msg operand) to the owner
	HSCFail                       // reply sc-fail
	HCASFail                      // reply cas-fail with the memory word
	HCASFailShare                 // INVs: record the sharer, reply cas-fail with data
	HExec                         // execute the op at memory into the reply scratch
	HUncReply                     // reply unc-reply from the scratch
	HUpdFanout                    // send updates to the other sharers when the word changed
	HUpdReply                     // record the sharer, reply upd-reply with data and acks
	HAcceptUnowned                // busy data return: write block, directory unowned
	HAcceptShare                  // busy data return: write block, ex-owner keeps a shared copy
	HReplay                       // re-dispatch the retained request, if any
	HWriteBack                    // spontaneous write-back from the recorded owner
	HDropSharer                   // forget the sharer named by a drop hint, if recorded
	HNakOrig                      // NAK and free the retained request; stay busy for the data
	HReleaseBusy                  // free any retained request and clear the busy state

	numHomeActs = 19
)

var homeActNames = [numHomeActs]string{
	HNak: "nak", HShareReply: "share-reply", HGrantE: "grant-e",
	HGrantESC: "grant-e-sc", HRecall: "recall", HSCFail: "sc-fail",
	HCASFail: "cas-fail", HCASFailShare: "cas-fail-share", HExec: "exec-mem",
	HUncReply: "unc-reply", HUpdFanout: "upd-fanout", HUpdReply: "upd-reply",
	HAcceptUnowned: "accept-unowned", HAcceptShare: "accept-share",
	HReplay: "replay", HWriteBack: "write-back", HDropSharer: "drop-sharer",
	HNakOrig: "nak-orig", HReleaseBusy: "release-busy",
}

// String returns the action name used in the table dump.
func (a HomeAct) String() string {
	if int(a) < len(homeActNames) {
		return homeActNames[a]
	}
	return fmt.Sprintf("hact(%d)", uint8(a))
}

// HAct is one home action with its message-kind operand (HRecall only).
type HAct struct {
	Do  HomeAct
	Msg MsgKind
}

// HRule pairs a home guard with its actions. A matching rule with nil
// Actions is an explicit stale-message ignore.
type HRule struct {
	Guard   HomeGuard
	Actions []HAct
}

// hact builds an operand-free home action.
func hact(a HomeAct) HAct { return HAct{Do: a} }

// hmsgAct builds a home action carrying a message-kind operand.
func hmsgAct(a HomeAct, k MsgKind) HAct { return HAct{Do: a, Msg: k} }

// HomeReq maps (home state, request kind) to the home's dispatch rules.
// Entries exist only for kinds with MsgKind.IsRequest.
var HomeReq [NumHomeStates][NumMsgKinds][]HRule

// HomeRet maps the non-request kinds a home receives (data returns, drop
// hints, recall NAKs, CAS releases) to their rules.
var HomeRet [NumMsgKinds][]HRule

func init() {
	buildCacheStart()
	buildCacheRecv()
	buildHomeTables()
	validate()
}

func buildCacheStart() {
	sendAll := func(k MsgKind) []Rule {
		return []Rule{{GAlways, []Act{msgAct(ASendHome, k)}}}
	}
	scHinted := func(k MsgKind) []Rule {
		return []Rule{
			{GLLHintFail, []Act{act(AClearLLHint), act(ACountSCFail), act(ACompleteFail)}},
			{GAlways, []Act{msgAct(ASendHome, k)}},
		}
	}

	// UNC: nothing is cached; every op but drop_copy goes to memory.
	for op := OpKind(0); op < NumOps; op++ {
		CacheStart[PolicyUNC][op] = StartSpec{Rules: sendAll(KUncOp)}
	}
	CacheStart[PolicyUNC][OpDropCopy] = StartSpec{
		Rules: []Rule{{GAlways, []Act{act(ACompleteOK)}}},
	}
	CacheStart[PolicyUNC][OpSC] = StartSpec{Rules: scHinted(KUncOp)}

	// UPD: loads hit the read-only copy; writes and atomics execute at the
	// home memory, which multicasts updates.
	for op := OpKind(0); op < NumOps; op++ {
		CacheStart[PolicyUPD][op] = StartSpec{Rules: sendAll(KUpdOp)}
	}
	// load_exclusive has no meaning under write-update; it behaves as an
	// ordinary load.
	updLoad := StartSpec{Prep: PrepLookup, Rules: []Rule{
		{GHit, []Act{act(ACompleteHit)}},
		{GAlways, []Act{msgAct(ASendHome, KUpdRead)}},
	}}
	CacheStart[PolicyUPD][OpLoad] = updLoad
	CacheStart[PolicyUPD][OpLoadExclusive] = updLoad
	CacheStart[PolicyUPD][OpDropCopy] = StartSpec{Prep: PrepPeek, Rules: []Rule{
		{GHit, []Act{act(ADropShared), act(ACompleteOK)}},
		{GAlways, []Act{act(ACompleteOK)}},
	}}
	CacheStart[PolicyUPD][OpSC] = StartSpec{Rules: scHinted(KUpdOp)}

	// INV: the computational power is in the cache controller; every start
	// probes the cache (the probe counts as a use).
	inv := func(rules ...Rule) StartSpec { return StartSpec{Prep: PrepLookup, Rules: rules} }
	CacheStart[PolicyINV][OpLoad] = inv(
		Rule{GHit, []Act{act(ACompleteHit)}},
		Rule{GAlways, []Act{msgAct(ASendHome, KRead)}},
	)
	// LL acquires a shared copy; an exclusive LL invites livelock.
	CacheStart[PolicyINV][OpLL] = inv(
		Rule{GHit, []Act{act(ASetResv), act(ACompleteHit)}},
		Rule{GAlways, []Act{msgAct(ASendHome, KRead)}},
	)
	CacheStart[PolicyINV][OpSC] = inv(
		Rule{GNoResv, []Act{act(ACountSCFail), act(ACompleteFail)}},
		Rule{GOwned, []Act{act(ALocalExec)}},
		Rule{GAlways, []Act{msgAct(ASendHome, KSCHome)}},
	)
	CacheStart[PolicyINV][OpDropCopy] = inv(
		Rule{GAlways, []Act{act(AEvictLine), act(ACompleteOK)}},
	)
	CacheStart[PolicyINV][OpCAS] = inv(
		Rule{GOwned, []Act{act(ALocalExec)}},
		Rule{GCASRemote, []Act{msgAct(ASendHome, KCASHome)}},
		Rule{GAlways, []Act{msgAct(ASendHome, KReadEx)}},
	)
	exclusive := inv(
		Rule{GOwned, []Act{act(ALocalExec)}},
		Rule{GAlways, []Act{msgAct(ASendHome, KReadEx)}},
	)
	for _, op := range []OpKind{OpStore, OpLoadExclusive, OpFetchAdd, OpFetchStore, OpFetchOr, OpTestAndSet} {
		CacheStart[PolicyINV][op] = exclusive
	}
}

func buildCacheRecv() {
	CacheRecv[KInval] = RecvSpec{Rules: []Rule{
		{GAlways, []Act{act(AInvalLine), msgAct(AAckRequester, KInvAck)}},
	}}
	CacheRecv[KRecallE] = RecvSpec{Prep: PrepPeek, Rules: []Rule{
		{GOwned, []Act{act(ASurrenderE)}},
		{GAlways, []Act{act(ASendRecallNak)}},
	}}
	CacheRecv[KRecallS] = RecvSpec{Prep: PrepPeek, Rules: []Rule{
		{GOwned, []Act{act(ASurrenderS)}},
		{GAlways, []Act{act(ASendRecallNak)}},
	}}
	CacheRecv[KCASFwd] = RecvSpec{Prep: PrepPeek, Rules: []Rule{
		{GNotOwned, []Act{act(ASendRecallNak)}},
		{GCASMatch, []Act{act(ASurrenderE)}},
		{GCASShare, []Act{act(ASurrenderS)}},
		{GAlways, []Act{act(ACASDeny)}},
	}}
	CacheRecv[KUpdate] = RecvSpec{Prep: PrepPeek, Rules: []Rule{
		{GHit, []Act{act(AApplyUpdate), msgAct(AAckRequester, KUpdAck)}},
		{GAlways, []Act{msgAct(AAckRequester, KUpdAck)}},
	}}
	ackRules := RecvSpec{NeedTxn: true, Rules: []Rule{
		{GAlways, []Act{act(ABumpAck), act(AMergeChain), act(AMaybeFinish)}},
	}}
	CacheRecv[KInvAck] = ackRules
	CacheRecv[KUpdAck] = ackRules
	CacheRecv[KNak] = RecvSpec{NeedTxn: true, Rules: []Rule{
		{GAlways, []Act{act(ACountNak), act(ARetry)}},
	}}
	CacheRecv[KDataS] = RecvSpec{NeedTxn: true, Rules: []Rule{
		{GOpRead, []Act{act(AFillShared), act(AMergeChain), act(ACompleteData)}},
		{GOpLL, []Act{act(AFillShared), act(AMergeChain), act(ASetResv), act(ACompleteData)}},
	}}
	CacheRecv[KDataE] = RecvSpec{NeedTxn: true, Rules: []Rule{
		{GOpSC, []Act{act(AGrant), act(AMergeChain), act(AFillExclusive), act(ASCApply), act(AMaybeFinish)}},
		{GAlways, []Act{act(AGrant), act(AMergeChain), act(AFillExclusive), act(AExecLine), act(AMaybeFinish)}},
	}}
	CacheRecv[KCASFail] = RecvSpec{NeedTxn: true, Rules: []Rule{
		{GAlways, []Act{act(AMergeChain), act(AFillIfData), act(ACompleteCASFail)}},
	}}
	CacheRecv[KSCFail] = RecvSpec{NeedTxn: true, Rules: []Rule{
		{GAlways, []Act{act(ACompleteSCFail)}},
	}}
	CacheRecv[KUncReply] = RecvSpec{NeedTxn: true, Rules: []Rule{
		{GAlways, []Act{act(AMergeChain), act(AHintIfLL), act(ACompleteReply)}},
	}}
	CacheRecv[KUpdReply] = RecvSpec{NeedTxn: true, Rules: []Rule{
		{GAlways, []Act{act(AGrant), act(AMergeChain), act(AFillIfData), act(AHintIfLL), act(AStashReply), act(AMaybeFinish)}},
	}}
}

func buildHomeTables() {
	nakAll := []HRule{{HGAlways, []HAct{hact(HNak)}}}

	// A busy block refuses every request; the requester retries.
	for k := MsgKind(0); k < NumMsgKinds; k++ {
		if k.IsRequest() {
			HomeReq[HBusy][k] = nakAll
		}
	}

	share := []HRule{{HGAlways, []HAct{hact(HShareReply)}}}
	grant := []HRule{{HGAlways, []HAct{hact(HGrantE)}}}
	recallOr := func(k MsgKind) []HRule {
		// The owner's own request means its write-back is in flight; NAK it
		// rather than recalling from ourselves.
		return []HRule{
			{HGOwnerIsReq, []HAct{hact(HNak)}},
			{HGAlways, []HAct{hmsgAct(HRecall, k)}},
		}
	}

	HomeReq[HUnowned][KRead] = share
	HomeReq[HShared][KRead] = share
	HomeReq[HExclusive][KRead] = recallOr(KRecallS)

	HomeReq[HUnowned][KReadEx] = grant
	HomeReq[HShared][KReadEx] = grant
	HomeReq[HExclusive][KReadEx] = recallOr(KRecallE)

	// store_conditional at home: succeed only when the requester still holds
	// its shared copy (no write intervened since the reservation was set —
	// any write would have invalidated that copy first).
	scFail := []HRule{{HGAlways, []HAct{hact(HSCFail)}}}
	HomeReq[HUnowned][KSCHome] = scFail
	HomeReq[HShared][KSCHome] = []HRule{
		{HGSharerHasReq, []HAct{hact(HGrantESC)}},
		{HGAlways, []HAct{hact(HSCFail)}},
	}
	HomeReq[HExclusive][KSCHome] = scFail

	casAtHome := []HRule{
		{HGCASMatch, []HAct{hact(HGrantE)}},
		{HGCASShare, []HAct{hact(HCASFailShare)}},
		{HGAlways, []HAct{hact(HCASFail)}},
	}
	HomeReq[HUnowned][KCASHome] = casAtHome
	HomeReq[HShared][KCASHome] = casAtHome
	HomeReq[HExclusive][KCASHome] = recallOr(KCASFwd)

	uncOp := []HRule{{HGAlways, []HAct{hact(HExec), hact(HUncReply)}}}
	updRead := share
	updOp := []HRule{{HGAlways, []HAct{hact(HExec), hact(HUpdFanout), hact(HUpdReply)}}}
	for _, st := range []HomeState{HUnowned, HShared, HExclusive} {
		HomeReq[st][KUncOp] = uncOp
		HomeReq[st][KUpdRead] = updRead
		HomeReq[st][KUpdOp] = updOp
	}

	// Data returns: a busy block accepts the owner's data and replays the
	// retained request; otherwise only a spontaneous write-back from the
	// recorded owner is legal.
	acceptUnowned := []HRule{
		{HGBusyBlock, []HAct{hact(HAcceptUnowned), hact(HReplay)}},
		{HGAlways, []HAct{hact(HWriteBack)}},
	}
	HomeRet[KWB] = acceptUnowned
	HomeRet[KWBRecall] = acceptUnowned
	HomeRet[KWBShare] = []HRule{
		{HGBusyBlock, []HAct{hact(HAcceptShare), hact(HReplay)}},
		{HGAlways, []HAct{hact(HWriteBack)}},
	}
	HomeRet[KDropS] = []HRule{{HGAlways, []HAct{hact(HDropSharer)}}}
	HomeRet[KRecallNak] = []HRule{
		{HGFromOwnerOrig, []HAct{hact(HNakOrig)}},
		{HGAlways, nil}, // stale: the write-back arrived first and completed the recall
	}
	HomeRet[KCASRel] = []HRule{
		{HGFromOwner, []HAct{hact(HReleaseBusy)}},
		{HGAlways, nil}, // stale: the busy state already resolved
	}
}

// validate panics when a table violates the structural rules the
// interpreters rely on: message-operand actions must carry a kind, request
// kinds must have rules in every home state, and non-request kinds must not
// appear in the request table.
func validate() {
	checkActs := func(where string, acts []Act) {
		for _, a := range acts {
			if a.Do == AAckRequester && a.Msg != KInvAck && a.Msg != KUpdAck {
				panic("proto: " + where + ": ack-requester with non-ack operand " + a.Msg.String())
			}
			if a.Do == ASendHome && !a.Msg.IsRequest() {
				panic("proto: " + where + ": send-home with non-request operand " + a.Msg.String())
			}
		}
	}
	for pol := Policy(0); pol < NumPolicies; pol++ {
		for op := OpKind(0); op < NumOps; op++ {
			spec := &CacheStart[pol][op]
			if len(spec.Rules) == 0 {
				panic("proto: cache start " + pol.String() + "/" + op.String() + " has no rules")
			}
			if spec.Rules[len(spec.Rules)-1].Guard != GAlways {
				panic("proto: cache start " + pol.String() + "/" + op.String() + " can fall through")
			}
			for _, r := range spec.Rules {
				checkActs("start "+pol.String()+"/"+op.String(), r.Actions)
			}
		}
	}
	for k := MsgKind(0); k < NumMsgKinds; k++ {
		for st := HomeState(0); st < NumHomeStates; st++ {
			rules := HomeReq[st][k]
			if k.IsRequest() && len(rules) == 0 {
				panic("proto: home " + st.String() + " has no rules for " + k.String())
			}
			if !k.IsRequest() && rules != nil {
				panic("proto: non-request " + k.String() + " in the home request table")
			}
		}
		if k.IsRequest() && HomeRet[k] != nil {
			panic("proto: request " + k.String() + " in the home return table")
		}
	}
}
