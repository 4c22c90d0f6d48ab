(** Two-phase commit with presumed abort over N {!Storage.Engine}
    shards, one per [base.shardK] database file, with a dedicated
    coordinator log at [base.2pc] (see {!Coord_log}).

    Items are hash-partitioned by {!Router}; a transaction's
    participants are the shards its writes touched.  Single-shard
    transactions commit one-phase; multi-shard transactions run
    PREPARE/VOTE/DECIDE over the {!Net} message layer, whose drop /
    delay / partition faults come from the shared {!Storage.Fault}
    injector — the same injector every shard engine and the
    coordinator log draw their disk faults and crash budget from, so
    "crash at the N-th durable I/O anywhere" is one budget.

    Opening runs the {e termination protocol} before any engine:
    every shard transaction left prepared is resolved against the
    coordinator log — a surviving Decide(commit) is completed by
    appending a Commit record to the shard WAL offline; anything else
    is presumed aborted and undone by the engine's ordinary restart
    recovery. *)

(** What {!commit} decided.  [Aborted] carries the reason (a no-vote,
    a lost message, a degraded log). *)
type outcome = Committed | Aborted of string

type t
(** An open sharded database: N engines, the coordinator log, the
    message layer, and the in-flight transaction table. *)

val open_dist :
  ?shards:int -> ?faults:Storage.Fault.spec -> ?crash_after:int ->
  ?metrics:Obs.Registry.t -> ?trace:Obs.Trace.t -> string -> t
(** Open (creating if needed) the sharded database rooted at [base].
    [shards] defaults to probing which [base.shardK] files exist;
    raises [Invalid_argument] when none do and [shards] was not given.
    Items hash over the shard count, so a [shards] that disagrees with
    the files on disk also raises [Invalid_argument], changing no file,
    when any of those shards holds a committed or prepared transaction;
    a family of empty shards (a crash while creating it) is completed.
    Runs the termination protocol, then opens every shard engine
    (restart recovery included) under one shared fault injector.
    [crash_after] overrides the spec's crash budget, as in
    {!Storage.Engine.open_db}.  Registers the [2pc.*] instruments on
    [metrics]; records [2pc.prepare]/[2pc.decide]/[2pc.resolve] spans
    on [trace]. *)

val close : t -> unit
(** Flush the coordinator log, then close every shard engine. *)

val crash : t -> unit
(** Abandon everything without flushing — the process dying. *)

val shard_path : string -> int -> string
(** [shard_path base k] is [base.shardK] (its WAL at [.shardK.wal]). *)

val coord_path : string -> string
(** [coord_path base] is [base.2pc]. *)

val discover : string -> int
(** How many consecutive [base.shardK] files exist, from [k = 0]. *)

val in_doubt_txns : (Storage.Wal.kind * int) list -> int list
(** The transactions a shard log's frames, given as [(kind, txn)]
    oldest first, leave in doubt: prepared and still live at the end,
    sorted.  The open's termination protocol resolves exactly these
    against the coordinator log; [lint commit] reports them (2C002,
    2C006). *)

val begin_txn : t -> int
(** Start a distributed transaction (a globally fresh id); shards
    learn of it lazily, at the first write routed to them.  Raises
    {!Storage.Engine.Read_only} when the coordinator log has
    degraded. *)

val write : t -> txn:int -> string -> int -> unit
(** Route the write to its shard (enlisting the shard as a participant
    on first touch).  Raises what {!Storage.Engine.write} raises —
    notably {!Storage.Engine.Locked} when the item is held by a
    transaction whose decision is still stranded. *)

val read : t -> string -> int
(** Route the read to its shard. *)

val commit : t -> txn:int -> outcome
(** Run the commit protocol: one-phase for a single participant,
    PREPARE/VOTE/DECIDE for several.  [Committed] is durable (the
    coordinator's Decide(commit) — or the single shard's Commit — is
    forced); [Aborted] means every shard's half is undone, is being
    undone, or will be presumed aborted at restart. *)

val abort : t -> txn:int -> unit
(** Deliver an abort decision to every participant (the workload's
    voluntary rollback / the executor's victim restart). *)

val nudge : t -> unit
(** Re-send stranded decisions, one cheap attempt per waiting shard.
    Shards acknowledge a re-sent COMMIT that already applied via
    [No_such_transaction], which is what lets the coordinator log
    Forget. *)

val backend : t -> Storage.Executor.backend
(** The coordinator as a {!Storage.Executor} backend: a decided abort
    commits as [Aborted], [settle] is {!nudge}, and a transaction is
    unsettled while {!is_stranded} — its scheduler locks stay held until
    every shard has the decision. *)

val stranded_txns : t -> int list
(** Transactions whose decision has not reached every shard, sorted.
    Their shard-side locks (and the executor's top-level locks) stay
    held. *)

val is_stranded : t -> int -> bool
(** Is this transaction's decision still undelivered somewhere? *)

val items : t -> (string * int) list
(** The union of every shard's committed-visible state, sorted (shard
    item spaces are disjoint by routing). *)

val shard_count : t -> int
(** N. *)

val shard : t -> int -> Storage.Engine.t
(** Direct access to one shard's engine (tests, status reporting). *)

val fault : t -> Storage.Fault.t
(** The shared injector. *)

val net_ticks : t -> int
(** Virtual time the message layer consumed. *)

val resolved : t -> int * int
(** (commits completed, presumed aborts) the termination protocol
    resolved at open. *)

val recoveries : t -> Storage.Recovery.outcome option list
(** Each shard's restart-recovery outcome from this open, in shard
    order. *)

val degraded : t -> bool
(** Has the coordinator log or any shard degraded to read-only? *)

val model_divergence : path:string -> ((string * int) list * (string * int) list) option
(** The distributed atomicity check.  Expected state is
    {!Transactions.Recovery.committed_state} over the concatenation of
    every shard's model log, plus a synthetic Commit for each
    transaction whose coordinator Decide(commit) survived without a
    shard Commit record — the 2PC commit point made explicit (such a
    transaction {e is} committed even if no COMMIT message ever
    arrived; the termination protocol completes it).  Actual state is
    the union of shard states after a faultless reopen (termination
    protocol + restart recovery).  [None] when they agree, [Some
    (expected, actual)] otherwise.  Guaranteed to be [None] under
    pure crash/message faults; probabilistic disk corruption can lose
    decided history, which {!Analysis.Commit_lint} flags instead. *)
