(* ARIES-lite restart recovery over the binary WAL.

   Three passes, as in the real thing:
     analysis — find the last checkpoint, the winners (Commit in the
       log) and the losers (Begin but no Commit/Abort);
     redo     — repeat history from the checkpoint: every logged write,
       winner or loser, is re-applied unless the page-LSN test shows the
       page already carries it;
     undo     — roll the losers back in reverse-LSN order, logging a
       compensation record for every undone write and an Abort when a
       loser is fully undone.

   Analysis covers the log the open walked, from the pager header's
   anchor (a checkpoint whose whole log prefix was read back clean) when
   the engine could use it, else from LSN 0.  It builds no record: at
   open it is fed frame by frame from the Wal's one validating walk,
   reading only each frame's kind and transaction id into int lists,
   starting from the anchor's next transaction id.  The anchor is always
   a quiescent checkpoint, so no loser or undecided transaction begins
   before it, and the walked tail says everything restart needs.  The engine
   allocates ids in ascending order, so those newest-first lists are
   usually strictly descending and reverse into sorted ones; only a
   list that is not (concurrent commits, ids given to [begin_txn ~id])
   is sorted.  Records are
   decoded only from the restart point, the first LSN that redo or undo
   needs: the last checkpoint, moved back to the first record naming a
   loser when such a record precedes it.  A checkpoint flushes every
   page before its record is logged, so redo can start there.  Every
   checkpoint this engine writes is quiescent ([Engine.checkpoint] and
   [Engine.save_table] refuse to run under a live transaction), but a
   log written by an earlier binary, whose [save_table] checkpointed
   while transactions were active, can hold a loser with writes before
   its last checkpoint, and undo must reach them.  A second header-only
   walk of the log finds the first one; it runs only when there are
   losers; with an anchor, it covers only the walked tail.
   [run] over a decoded entry list is the same analysis and the same
   redo/undo, from LSN 0.

   "Lite" relative to ARIES: there is no dirty-page table and no
   active-transaction table in the checkpoint (hence that second walk),
   and compensation records carry no undo-next pointer (a crash during
   undo just re-undoes; repeating history keeps that idempotent).
   Transactions whose Abort record made it to the log are NOT
   re-undone: their compensations are ordinary logged history, which
   the redo pass repeats — this is what makes an abort followed by a
   committed overwrite of the same item crash-safe.

   The committed-state invariant (the specification in
   Transactions.Recovery): after recovery the store holds exactly the
   winners' writes applied in log order. *)

type outcome = {
  checkpoint_lsn : int option;
  winners : int list;
  losers : int list;
  redo_applied : int;
  redo_skipped : int;
  undone : int;
}

type analysis = {
  checkpoint_lsn : int option;
  winners : int list;
  losers : int list;
  next_txn : int;
  idle : bool;
}

type tally = {
  mutable last_checkpoint : int;  (* -1: none *)
  mutable last_frame : int;  (* -1: none, like [last_checkpoint] *)
  mutable begun : int list;
  mutable commits : int list;
  mutable aborts : int list;
  mutable max_txn : int;
}

let tally ?(next_txn = 1) () =
  {
    last_checkpoint = -1;
    last_frame = -1;
    begun = [];
    commits = [];
    aborts = [];
    max_txn = next_txn - 1;
  }

let note t lsn (kind : Wal.kind) txn =
  t.last_frame <- lsn;
  (match kind with
  | `Checkpoint -> t.last_checkpoint <- lsn
  | `Begin -> t.begun <- txn :: t.begun
  | `Commit -> t.commits <- txn :: t.commits
  | `Abort -> t.aborts <- txn :: t.aborts
  (* presumed abort: a surviving Prepare alone leaves the txn live,
     hence a loser; the distributed termination protocol appends a
     Commit before recovery when the coordinator decided commit *)
  | `Prepare | `Write -> ());
  if txn > t.max_txn then t.max_txn <- txn

(* [a] minus [b], both sorted and duplicate-free *)
let diff a b =
  let rec go acc a b =
    match (a, b) with
    | [], _ -> List.rev acc
    | _, [] -> List.rev_append acc a
    | x :: a', y :: b' ->
        if x < y then go (x :: acc) a' b
        else if x > y then go acc a b'
        else go acc a' b'
  in
  go [] a b

(* A newest-first list of ids that arrived in strictly ascending order
   reverses into a sorted, duplicate-free one; any other is sorted. *)
let sorted newest_first =
  let rec descending = function
    | x :: (y :: _ as rest) -> x > y && descending rest
    | _ -> true
  in
  if descending newest_first then List.rev newest_first
  else List.sort_uniq Int.compare newest_first

let analysis t =
  let winners = sorted t.commits in
  let losers = diff (diff (sorted t.begun) winners) (sorted t.aborts) in
  {
    checkpoint_lsn =
      (if t.last_checkpoint < 0 then None else Some t.last_checkpoint);
    winners;
    losers;
    next_txn = t.max_txn + 1;
    idle = t.last_frame = t.last_checkpoint && losers = [];
  }

let analyze entries =
  let t = tally () in
  List.iter
    (fun { Wal.lsn; record } -> note t lsn (Wal.kind_of record) (Wal.txn_of record))
    entries;
  analysis t

(* Redo and undo over [entries], which must hold every record from the
   restart point on. *)
let replay (a : analysis) entries ~read ~write ~log =
  (* redo: repeat history from the checkpoint *)
  let redo_applied = ref 0 and redo_skipped = ref 0 in
  let start = match a.checkpoint_lsn with Some l -> l | None -> -1 in
  List.iter
    (fun { Wal.lsn; record } ->
      if lsn > start then
        match record with
        | Wal.Write { item; after; _ } ->
            if write ~lsn item after then incr redo_applied
            else incr redo_skipped
        | _ -> ())
    entries;
  (* undo: losers' writes, newest first, with compensation logging *)
  let undone = ref 0 in
  List.iter
    (fun { Wal.lsn = _; record } ->
      match record with
      | Wal.Write { txn; item; before; after = _; compensation = _ }
        when List.mem txn a.losers ->
          let current = read item in
          let clr =
            Wal.Write
              {
                txn;
                item;
                before = current;
                after = before;
                compensation = true;
              }
          in
          let lsn = log clr in
          ignore (write ~lsn item before : bool);
          incr undone
      | _ -> ())
    (List.rev entries);
  List.iter (fun t -> ignore (log (Wal.Abort t) : int)) a.losers;
  {
    checkpoint_lsn = a.checkpoint_lsn;
    winners = a.winners;
    losers = a.losers;
    redo_applied = !redo_applied;
    redo_skipped = !redo_skipped;
    undone = !undone;
  }

let run ~entries ~read ~write ~log = replay (analyze entries) entries ~read ~write ~log

let restart_point (image : Wal.image) (a : analysis) =
  match a.checkpoint_lsn with
  | None -> image.base
  | Some ckpt when a.losers = [] -> ckpt
  | Some ckpt ->
      fst
        (Wal.walk ~base:image.base image.bytes ~init:ckpt
           ~f:(fun first lsn _ txn ->
             if lsn < first && List.mem txn a.losers then lsn else first))

let restart ~image a ~read ~write ~log =
  replay a (Wal.entries_from image (restart_point image a)) ~read ~write ~log

(* at most [max_ids] ids per list, so a long history stays one readable
   line *)
let max_ids = 16

let outcome_to_string (o : outcome) =
  let ids l =
    let shown = List.filteri (fun i _ -> i < max_ids) l in
    String.concat "," (List.map string_of_int shown)
    ^
    match List.length l - max_ids with
    | more when more > 0 -> Printf.sprintf ",\u{2026}+%d more" more
    | _ -> ""
  in
  Printf.sprintf
    "checkpoint=%s winners=[%s] losers=[%s] redo=%d skipped=%d undone=%d"
    (match o.checkpoint_lsn with None -> "none" | Some l -> string_of_int l)
    (ids o.winners) (ids o.losers) o.redo_applied o.redo_skipped o.undone
