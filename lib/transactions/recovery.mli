(** Write-ahead logging and undo recovery — the "reliability and
    recovery" thread of the transaction-processing tradition (§6).

    A volatile store applies writes in place (steal/no-force): at a crash
    the disk image may contain uncommitted writes and may be missing
    nothing (all writes go through), so recovery must {e undo} the losers.
    Every write is preceded by an undo log record; recovery scans the
    log, determines the winners (committed) and losers, and rolls the
    losers' writes back in reverse order.

    The correctness property (tested, including crash-during-recovery):
    after a crash at {e any} prefix of the log, recovery produces exactly
    the state of the committed transactions' writes applied in log
    order. *)

type value = int
(** An item's value; an item never written reads 0. *)

type record =
  | Begin of Schedule.txn
  | Write of Schedule.txn * Schedule.item * value * value
      (** item, before-image, after-image *)
  | Commit of Schedule.txn
  | Abort of Schedule.txn

type log = record list
(** Oldest first. *)

type store = (Schedule.item * value) list
(** The "disk": item to current value; absent items read 0. *)

val read : store -> Schedule.item -> value

val apply_log : store -> log -> store
(** Replays every write in order — the disk image at the crash point under
    steal/no-force with synchronous WAL. *)

val winners : log -> Schedule.txn list
val losers : log -> Schedule.txn list
(** Transactions with a Begin but no Commit/Abort, plus aborted ones whose
    undo may not have reached the disk. *)

val recover : store -> log -> store
(** Undo pass: roll back losers' writes in reverse log order. *)

val committed_state : log -> store
(** The specification: replay only the winners' writes, in log order,
    starting from the empty store. *)

val run_and_crash :
  Support.Rng.t ->
  specs:(Schedule.txn * (Schedule.item * value) list) list ->
  crash_at:int ->
  store * log
(** Executes the transactions' writes randomly interleaved, emitting log
    records, stopping after [crash_at] records; returns the disk image
    and the surviving log.  Execution is strict (per-item write locks
    held to commit, acquired in sorted item order so no deadlock is
    possible) — the discipline undo recovery requires.  Transactions
    whose Commit record fits are winners; the rest are in-flight at the
    crash. *)
