(** The concurrent transaction executor: runs interleaved
    {!Transactions.Workload} programs under SS2PL — shared locks for
    reads, exclusive for writes, all held to commit/abort via
    {!Lock_manager} — against any transactional {!backend}: one
    {!Engine} ({!engine}), a two-phase-commit coordinator over sharded
    engines ([Distributed.Coordinator.backend]), or a WAL-shipping
    replication group ([Replication.Group.backend]).  One scheduler, so
    the same seed makes the same locking decisions on all three.

    The driver is the same single-threaded round-robin scheduler as
    {!Transactions.Simulation}: each live transaction attempts one step
    per round, blocked transactions re-issue their lock request, and
    deadlock/timeout victims are aborted and restarted under a fresh
    backend transaction id with bounded exponential backoff plus
    deterministic (seeded) jitter.  A commit the backend decides to
    abort (2PC's lost message or no-vote) restarts the program the same
    way.  The victim policy mirrors [Simulation.break_deadlock]: prefer
    to keep the transaction with the most restarts behind it (highest
    incarnation, ties to the lowest program index) and abort the rest —
    {!victim_pref} is the pure pairwise form, cross-checked against the
    simulation in the tests.

    Faults: an injected crash ({!Fault.Crash}) abandons the backend and
    is reported in the stats; a backend that raises
    {!Engine.Read_only} (an unflushable WAL, a degraded coordinator
    log, a fenced primary) stops the run, and unresolved transactions
    are left in doubt for restart recovery; CRC-corrupt pages are
    repaired inside the engine without the executor noticing (see
    {!Engine.last_repair}). *)

(** Scheduler knobs; see {!default_config}.  The backoff window doubles
    per restart up to 64 rounds, and a run stops after 200,000
    operation attempts (the livelock bound). *)
type config = {
  lock_timeout : int option;  (** lock-wait timeout in rounds, if any *)
  seed : int;  (** jitter RNG seed *)
}

val default_config : config
(** lock_timeout None, seed 0. *)

(** What a backend's commit decided.  [Aborted] means the work is
    undone (or will be, by restart recovery); the scheduler retries the
    program after backoff. *)
type outcome = Committed | Aborted

(** A transactional backend, as the scheduler sees it.  [write] may
    raise {!Engine.Locked} when the item is held below the scheduler by
    a transaction whose outcome is not yet everywhere; the scheduler
    then calls [settle] and retries.  [settle] runs once per round and
    once at the end (2PC re-sends stranded decisions there), and a
    retired transaction for which [unsettled] holds keeps its locks
    until it no longer does.  [degraded] is checked once, after the
    run. *)
type backend = {
  begin_txn : unit -> int;
  read : string -> int;
  write : txn:int -> string -> int -> unit;
  commit : txn:int -> outcome;
  abort : txn:int -> unit;
  crash : unit -> unit;  (** abandon everything without flushing *)
  settle : unit -> unit;
  unsettled : int -> bool;
  degraded : unit -> bool;
  fault : Fault.t;  (** the injector whose crash the stats report *)
  metrics : Obs.Registry.t;  (** receives the [exec.*] and [lock.*] instruments *)
  trace : Obs.Trace.t;  (** receives the [exec.txn] events *)
}

val engine : Engine.t -> backend
(** One engine: commits always succeed (or raise), [settle] does
    nothing and nothing is ever unsettled. *)

(** What one {!run} did.  [restarts], [deadlocks], [timeouts], [steps]
    and [wasted_ops] are what the run added to its [exec.*] counters,
    so two runs on one registry each report their own. *)
type stats = {
  committed : int;
  restarts : int;  (** victim aborts (deadlock + timeout) + commit aborts *)
  deadlocks : int;  (** restarts caused by waits-for cycles *)
  timeouts : int;  (** restarts caused by lock-wait timeout *)
  commit_aborts : int;  (** restarts caused by a commit decided [Aborted] *)
  steps : int;  (** operation attempts, a proxy for time *)
  wasted_ops : int;  (** operations re-executed after restarts *)
  degraded : bool;  (** the backend went read-only under the run *)
  crashed : Fault.crash_info option;  (** an injected crash fired *)
}

val run : ?config:config -> backend -> Transactions.Simulation.spec array -> stats
(** Execute the programs to completion (or crash/degradation/step
    bound).  Written values are drawn from a per-run counter so every
    write is distinguishable in the log — which is what makes the
    {!model_divergence} check sharp.  On {!Fault.Crash} the backend is
    abandoned ([crash]) before returning.

    Observability rides on the backend's registry and recorder: the run
    registers the [exec.*] instruments (steps, restarts by cause, wasted
    ops, the [exec.backoff_rounds] histogram), passes the registry to
    its {!Lock_manager} (the [lock.*] instruments), and emits one
    [exec.txn] trace event per transaction incarnation — lane
    [1 + slot index], annotated with the backend txn id, incarnation,
    and outcome ([commit], [abort], [deadlock], [timeout], or
    [commit_abort] for a commit the backend decided to abort). *)

val throughput : stats -> float
(** committed / steps. *)

val victim_pref :
  age:(int -> int * int) -> int -> int -> int
(** [victim_pref ~age a b] is the transaction to abort, where [age txn]
    gives (incarnation, program index).  Mirrors
    [Simulation.break_deadlock]'s survivor choice: the higher
    incarnation survives, ties broken towards the lower index. *)

val committed_items : ?decided:int list -> Wal.record list -> (string * int) list
(** The item state a surviving log commits, sorted, zero values
    dropped: {!Transactions.Recovery.committed_state} of the log's
    model image.  [decided] names transactions to count as committed
    even without a Commit record in the log (a coordinator's surviving
    Decide(commit)).  Every backend's model check compares against
    this. *)

val model_divergence : path:string -> ((string * int) list * (string * int) list) option
(** Reopen the database at [path] (running recovery/repair) and compare
    its committed items against {!committed_items} of the surviving
    log: [None] when they agree, [Some (expected, actual)] otherwise.
    The engine must be closed. *)
