(** A replication group: one primary {!Storage.Engine} streaming its
    WAL over the {!Distributed.Net} message layer to N-1 {!Replica}s,
    with quorum-acknowledged or asynchronous commits, snapshot + log
    tail catch-up, and epoch-fenced failover.

    Shipping is {e physical}: after every commit the primary sends the
    durable WAL bytes each replica is missing, stamped with the group
    epoch; replicas append them verbatim, so a caught-up replica's log
    is byte-identical to a prefix of the primary's, and promoting a
    node is opening an engine on its files.  The shipping channel draws [drop]/[delay]/[part] faults
    from the same shared {!Storage.Fault} injector as every disk in the
    group — one crash budget covers primary, replicas, metadata, and
    messages alike.

    Under [Quorum] sync a commit is {e acknowledged} only after a
    majority of nodes (primary included) hold its bytes, and the ack is
    journaled durably ([base.acks]) before the caller hears of it; the
    journal plus the promotion rule — failover promotes the node with
    the longest clean log — is what makes "an acked commit is never
    lost" hold, and {!Analysis.Replication_lint} checks it offline.
    Under [Async] the commit returns after local durability and
    replicas are shipped best-effort, one attempt per commit. *)

(** What a commit achieved.  [Acked] is the full promise (quorum
    reached and journaled, or async mode's local durability);
    [Local_only] means the commit is durable on the primary but quorum
    was not reached — it may be lost by a failover and the client must
    not be told it succeeded. *)
type outcome = Acked | Local_only

exception Fenced of int
(** The primary discovered a higher epoch — it has been deposed by a
    failover and must stop accepting writes.  Carries the epoch that
    fenced it. *)

type t
(** An open replication group: the primary engine, the replica
    handles, the shipping channel, and the per-replica ack
    watermarks. *)

val open_group :
  ?replicas:int -> ?sync:Repl_meta.sync_mode -> ?faults:Storage.Fault.spec ->
  ?crash_after:int -> ?metrics:Obs.Registry.t -> ?trace:Obs.Trace.t ->
  string -> t
(** Open (creating if needed) the group rooted at [base].  [replicas]
    defaults to what the group descriptor (or the [base.rK] file
    family) says; raises [Invalid_argument] when neither names any.
    The current primary (per the descriptor — possibly a promoted
    replica) opens as an ordinary engine, restart recovery included;
    every other node attaches, is prefix-verified against the
    primary's log, and is caught up (diverged nodes — a deposed
    primary rejoining — by full snapshot).  Registers the [repl.*]
    instruments on [metrics]; records [repl.ship] / [repl.snapshot] /
    [repl.catchup] / [repl.failover] spans on [trace]. *)

val close : t -> unit
(** Checkpoint and close the primary, then ship the final tail (and
    the page images the shutdown checkpoint implies) so surviving
    replicas end byte-identical — faults permitting. *)

val crash : t -> unit
(** Abandon everything without flushing — the process dying. *)

val begin_txn : t -> int
(** Start a transaction on the primary.  Raises {!Fenced} if the group
    has deposed this primary. *)

val write : t -> txn:int -> string -> int -> unit
(** A transactional write on the primary (raises what
    {!Storage.Engine.write} raises). *)

val read : t -> string -> int
(** Read the primary's committed-visible value. *)

val commit : t -> txn:int -> outcome
(** Commit on the primary (the local durability point), then ship the
    new tail to every replica.  [Quorum] mode waits for a majority of
    nodes to ack, journals the ack durably, and only then returns
    [Acked]; short of quorum it returns [Local_only].  [Async] mode
    ships one attempt per replica and returns [Acked] immediately
    after local durability. *)

val abort : t -> txn:int -> unit
(** Abort on the primary (compensations ship with the next tail). *)

val backend : t -> Storage.Executor.backend
(** The group as a {!Storage.Executor} backend.  Both {!outcome}s
    commit as [Committed] — a [Local_only] commit is durable on the
    primary, and retrying it would write it twice; {!commits} keeps the
    split.  A {!Fenced} primary raises {!Storage.Engine.Read_only} from
    [begin_txn], stopping the run, and counts as degraded. *)

val commits : t -> int * int
(** [(acked, local_only)]: how this handle's {!commit}s were answered. *)

val fenced : t -> int option
(** The epoch that deposed this primary, once a ship revealed one. *)

val catch_up : t -> unit
(** Bring every lagging replica forward: log tail for prefix-clean
    nodes, full snapshot (page-ship + log) for fresh or diverged
    ones.  Safe to call at any quiescent point; a no-op when all
    replicas are current. *)

val failover : t -> int
(** Deterministic failover: crash the primary, rescan every other
    node's files, promote the one with the longest clean log (ties to
    the lowest node id) whose snapshot covers its last shipped
    checkpoint, bump the epoch, and reopen the winner as the new
    primary engine.  The deposed primary rejoins as a diverged replica
    (healed by snapshot on the next {!catch_up}).  Returns the new
    primary's node id. *)

val items : t -> (string * int) list
(** The primary's committed-visible KV state, sorted. *)

val primary : t -> Storage.Engine.t
(** The primary's engine (status reporting, tests). *)

val primary_id : t -> int
(** Which node is currently primary. *)

val epoch : t -> int
(** The group's current fencing epoch. *)

val node_count : t -> int
(** Total nodes, primary included. *)

val sync_mode : t -> Repl_meta.sync_mode
(** The group's acknowledgement mode. *)

val replica : t -> int -> Replica.t option
(** The handle for node [k] ([None] for the primary slot). *)

val replica_ids : t -> int list
(** Every non-primary node id, sorted. *)

val lag : t -> int
(** The worst replica lag in bytes (primary durable LSN minus the
    slowest replica's durable LSN; diverged replicas count from 0). *)

val fault : t -> Storage.Fault.t
(** The shared injector (tests arm crash budgets mid-run through
    it). *)

val net_ticks : t -> int
(** Virtual time the shipping channel consumed. *)

val base : t -> string
(** The base path the group is rooted at. *)

val model_divergence : path:string -> ((string * int) list * (string * int) list) option
(** The replicated model check: the current primary's surviving log
    gives the expected state ({!Storage.Executor.committed_items});
    the group is then reopened as its descriptor describes it (restart
    recovery on the primary, catch-up for every replica) and its
    {!items} compared.  [None] when they agree, [Some (expected,
    actual)] otherwise.  The group must be closed or crashed. *)
