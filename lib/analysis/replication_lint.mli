(** The replication lint behind [dbmeta lint repl]: cross-log agreement
    checks between a replication group's primary and replica WALs, plus
    its metadata and ack journal — all scanned read-only, runnable
    against the survivor files of a crashed or failed-over group.

    Diagnostic codes:
    - [RP001] (error) diverged replica: a node stamped with the current
      epoch whose log is not a byte prefix of the primary's (a
      stale-epoch node's divergence is expected — the snapshot catch-up
      heals it — and reported as info)
    - [RP002] (error) stale-epoch write accepted: the ack journal's
      epochs regress, or exceed the group's — a deposed primary kept
      promising commits past its fencing
    - [RP003] (error) acked-but-lost commit: a journaled quorum ack
      whose transaction has no Commit in the current primary's log, or
      whose watermark lies beyond it — the client was promised a commit
      the group no longer holds
    - [RP004] (error) snapshot/log-tail gap: a node's snapshot
      watermark runs ahead of its clean log, or behind a shipped
      Checkpoint — either way the node's page image and log disagree
      about where redo may start, so promoting it would recover wrong
      state

    The protocol-correctness contract, QCheck-tested: survivor files of
    any quorum-mode crash/loss sweep — failovers included — lint with
    zero errors. *)

type node = {
  id : int;  (** node id within the group *)
  path : string;  (** the node's database path *)
  node_epoch : int option;  (** its durable epoch stamp, when present *)
  node_snapshot : int option;  (** its snapshot watermark, when present *)
  wal_prefix : string;
      (** its WAL's clean prefix, whole frames up to the first damaged
          one: the bytes RP001 compares, whose length is the clean
          length RP003 and RP004 compare against *)
  commits : int list;
      (** the transactions of the prefix's Commit frames, newest first *)
  last_checkpoint : int option;  (** the LSN of its last Checkpoint frame *)
}
(** Everything the lint knows about one node, from its files alone:
    each WAL is read once and walked by its frame headers
    ({!Storage.Wal.walk}), decoding no record. *)

type input = {
  group : Replication.Repl_meta.group option;  (** the descriptor, when readable *)
  nodes : node list;  (** every node of the family, primary included *)
  acks : Replication.Repl_meta.ack list;  (** the quorum-ack journal *)
}
(** The offline view of a replication group. *)

val of_base : string -> input
(** Scan [base.repl], [base.acks], and every node's WAL and epoch stamp
    read-only. *)

val passes : input Pass.t list
(** The RP pass suite, for {!Pass.run_all} / {!Pass.drive}. *)

val lint : input -> Diagnostic.t list
(** Runs every pass and returns sorted diagnostics. *)

val lint_base : string -> Diagnostic.t list
(** {!lint} over {!of_base}. *)
