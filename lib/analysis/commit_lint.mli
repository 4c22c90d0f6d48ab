(** The distributed-protocol lint behind [dbmeta lint commit]:
    cross-log agreement checks between a 2PC coordinator log and its
    shard WALs, all scanned read-only (runnable against the survivor
    files of a crashed run).

    Diagnostic codes:
    - [2C001] (error) Decide(commit) without a yes-vote from every
      participant (or without a Begin naming the participants at all)
    - [2C002] (warning) a shard leaves a transaction prepared (in
      doubt) at the end of its log — normal after a crash; the message
      says how restart resolution will settle it
    - [2C003] (error) a shard commits a distributed transaction with
      no surviving Prepare — the vote the commit depends on is gone
    - [2C004] (error) atomicity violation: one transaction committed
      on some shards and aborted on others
    - [2C005] (error) conflicting Decide records for one transaction
    - [2C006] (error) Forget while some shard still holds the
      transaction prepared, or Forget without any surviving decision

    The protocol-correctness contract, QCheck-tested: survivor logs of
    any crash-budget sweep over a 2PC workload lint with zero errors
    (2C002 warnings are expected — they are what the termination
    protocol resolves).  Probabilistic disk corruption can lose
    decided history; the errors then name exactly what was lost. *)

type input = {
  coord : Distributed.Coord_log.entry list;
  shards : (int * (Storage.Wal.kind * int) list) list;
}
(** The coordinator's surviving records plus, by shard id, each shard
    log's surviving frames as [(kind, txn)], oldest first; a frame's
    position is the [loc] of a shard diagnostic.  The in-doubt rule
    (2C002, 2C006) is {!Distributed.Coordinator.in_doubt_txns}, the one
    restart resolution uses. *)

val of_base : string -> input
(** Scan [base.2pc] and every discovered [base.shardK.wal]
    read-only; the shard logs are walked by frame header
    ({!Storage.Wal.walk_file}), no record decoded. *)

val passes : input Pass.t list
(** The 2C pass suite, for {!Pass.run_all} / {!Pass.drive}. *)

val lint : input -> Diagnostic.t list
(** Runs every pass and returns sorted diagnostics. *)

val lint_base : string -> Diagnostic.t list
(** {!lint} over {!of_base}. *)
