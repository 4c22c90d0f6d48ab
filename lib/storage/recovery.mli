(** ARIES-lite restart recovery: analysis, redo from the last checkpoint
    repeating history, then undo of losers in reverse-LSN order with
    compensation logging.

    Analysis covers the log the open walked: from the pager header's
    anchor, a quiescent checkpoint whose whole log prefix was read back
    clean, when the engine can use it ({!Engine.log_anchor}), and from
    LSN 0 otherwise.  Records are built only from the restart point.
    At open, analysis is fed frame by frame from the log's one
    validating walk ({!Wal.open_log}'s [on_frame], via {!tally}/{!note})
    and reads only each frame's kind and transaction id; ids that
    arrive in ascending order need no sort.  {!restart} then decodes
    from the restart point: the last checkpoint, or the walk's start
    without one, moved back to the first record naming a loser when
    that record precedes the checkpoint (the engine's checkpoints are
    quiescent, but a log written by an earlier binary may hold one
    taken under active transactions; such a log has no anchor).  {!run}
    over a decoded entry list is the same analysis and the same
    redo/undo.

    The algorithm is store-agnostic: the engine supplies [read]/[write]
    over its item pages and [log] appending to its WAL, so the same pass
    structure is unit-testable against a plain hash table.  The
    correctness target is {!Transactions.Recovery.committed_state}: after
    recovery the store holds exactly the committed transactions' writes
    in log order. *)

(** What one restart recovery did — surfaced by [db status] and
    {!Engine.last_recovery}. *)
type outcome = {
  checkpoint_lsn : int option;
  winners : int list;
      (** committed in the part of the surviving log the open walked:
          from its anchor, or the whole log without one *)
  losers : int list;  (** begun, neither committed nor aborted *)
  redo_applied : int;
  redo_skipped : int;  (** writes the page-LSN test proved already present *)
  undone : int;
}

(** The analysis pass's result over the walked log. *)
type analysis = {
  checkpoint_lsn : int option;  (** the last checkpoint's LSN *)
  winners : int list;  (** committed, sorted *)
  losers : int list;  (** begun, neither committed nor aborted, sorted *)
  next_txn : int;  (** one past the largest transaction id named *)
  idle : bool;
      (** restart has nothing to redo or undo: the log is empty or its
          last frame is a checkpoint, and no loser is open.  The engine
          then skips the post-recovery checkpoint, so an open writes
          nothing. *)
}

type tally
(** Analysis in progress: int lists, one cons per record. *)

val tally : ?next_txn:int -> unit -> tally
(** An empty tally.  [next_txn] (default 1) is the next transaction id
    before the first frame noted: an anchored walk passes the anchor's,
    so ids keep climbing past every transaction before it. *)

val note : tally -> int -> Wal.kind -> int -> unit
(** [note t lsn kind txn] counts one frame, in log order — the shape of
    {!Wal.open_log}'s [on_frame]. *)

val analysis : tally -> analysis
(** Finish: order the lists and take the losers as a sorted difference.
    A list whose ids arrived in strictly ascending order — the engine's
    own allocation order — is reversed, not sorted; any other (ids out
    of order or repeated) goes through [List.sort_uniq]. *)

val analyze : Wal.entry list -> analysis
(** The {!analysis} of a decoded log, as if its frames were {!note}d in
    order. *)

val run :
  entries:Wal.entry list ->
  read:(string -> int) ->
  write:(lsn:int -> string -> int -> bool) ->
  log:(Wal.record -> int) ->
  outcome
(** Recovery over a whole decoded log.  [write ~lsn item v] must apply
    the page-LSN test: return [false] (skip) when the item's page
    already carries an LSN ≥ [lsn], [true] after applying and raising
    the page LSN.  [log] appends a WAL record and returns its LSN. *)

val restart :
  image:Wal.image ->
  analysis ->
  read:(string -> int) ->
  write:(lsn:int -> string -> int -> bool) ->
  log:(Wal.record -> int) ->
  outcome
(** {!run}'s outcome, identical field by field, for the verified image
    {!Wal.open_log} returned and its {!analysis}, decoding records only
    from the restart point: the first LSN redo or undo needs.  That is
    the last checkpoint (the image's base without one), or the first
    record naming a loser when it comes earlier, found by a second
    header-only walk of the image that runs only when there are
    losers.  For an image from LSN 0, {!run} over the whole log is the
    same. *)

val outcome_to_string : outcome -> string
(** The one-line rendering [db status] and [db recover] print.  Each id
    list shows at most 16 ids, then […+N more]. *)
