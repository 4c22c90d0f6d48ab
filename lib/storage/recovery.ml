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

   "Lite" relative to ARIES: checkpoints are quiescent (taken only when
   no transaction is active, so redo can really start there), there is no
   dirty-page table, and compensation records carry no undo-next pointer
   (a crash during undo just re-undoes; repeating history keeps that
   idempotent).  Transactions whose Abort record made it to the log are
   NOT re-undone: their compensations are ordinary logged history, which
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

let analyze entries =
  let checkpoint = ref None in
  let begun = Hashtbl.create 64 in
  let committed = Hashtbl.create 64 in
  let ended = Hashtbl.create 64 in
  List.iter
    (fun { Wal.lsn; record } ->
      match record with
      | Wal.Checkpoint -> checkpoint := Some lsn
      | Wal.Begin t -> Hashtbl.replace begun t ()
      | Wal.Commit t ->
          Hashtbl.replace committed t ();
          Hashtbl.replace ended t ()
      | Wal.Abort t -> Hashtbl.replace ended t ()
      (* presumed abort: a surviving Prepare alone leaves the txn live,
         hence a loser; the distributed termination protocol appends a
         Commit before recovery when the coordinator decided commit *)
      | Wal.Prepare _ -> ()
      | Wal.Write _ -> ())
    entries;
  let sorted set =
    List.sort Int.compare (Hashtbl.fold (fun t () acc -> t :: acc) set [])
  in
  let losers =
    List.filter (fun t -> not (Hashtbl.mem ended t)) (sorted begun)
  in
  (!checkpoint, sorted committed, losers)

let run ~entries ~read ~write ~log =
  let checkpoint_lsn, winners, losers = analyze entries in
  (* redo: repeat history from the checkpoint *)
  let redo_applied = ref 0 and redo_skipped = ref 0 in
  let start = match checkpoint_lsn with Some l -> l | None -> -1 in
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
        when List.mem txn losers ->
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
  List.iter (fun t -> ignore (log (Wal.Abort t) : int)) losers;
  { checkpoint_lsn; winners; losers; redo_applied = !redo_applied;
    redo_skipped = !redo_skipped; undone = !undone }

let outcome_to_string o =
  let ids l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf
    "checkpoint=%s winners=[%s] losers=[%s] redo=%d skipped=%d undone=%d"
    (match o.checkpoint_lsn with None -> "none" | Some l -> string_of_int l)
    (ids o.winners) (ids o.losers) o.redo_applied o.redo_skipped o.undone
