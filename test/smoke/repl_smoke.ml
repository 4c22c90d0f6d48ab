(* Fast replication fault-matrix smoke for @check: a reduced sweep of
   {sync modes} x {message loss, crashes, crash+loss} over a
   WAL-shipping group, each cell healed by a faultless reopen and then
   checked four ways — every acked commit present on the primary, every
   replica level with the primary after the heal's close, holding a
   byte-identical log and a promoted copy (an engine opened on a copy
   of its files) serving the primary's items, every node's WAL through
   the offline verifier, and the survivor files through the
   replication lint.  A quorum cell's heal also
   commits one more transaction, which the ack journal must then hold;
   one cell's crash lands on an ack append, so that check reads past a
   torn ack.  A reduced version of the QCheck sweep in
   test/test_replication.ml. *)

module G = Replication.Group
module M = Replication.Repl_meta
module E = Storage.Engine
module F = Storage.Fault
module W = Storage.Wal
module D = Analysis.Diagnostic

let failures = ref 0

let say fmt = Printf.printf (fmt ^^ "\n%!")

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL: %s\n%!" s)
    fmt

let fresh_base =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "repl_smoke_%d_%d.db" (Unix.getpid ()) !n)

let cleanup base =
  let rm p = if Sys.file_exists p then Sys.remove p in
  rm (M.group_path base);
  rm (M.acks_path base);
  for k = 0 to 3 do
    let p = M.node_path base k in
    rm p;
    rm (E.wal_path p);
    rm (M.epoch_path p)
  done

let errors diags = List.filter (fun d -> d.D.severity = D.Error) diags

let read_file path =
  if Sys.file_exists path then Support.Io.read_file path else ""

(* The items promoting a node would serve: an engine opened on a copy
   of its db image and log, so the node keeps its bytes. *)
let promoted_items node =
  let copy = fresh_base () in
  let cp src dst =
    if Sys.file_exists src then Support.Io.write_file dst (read_file src)
  in
  cp node copy;
  cp (E.wal_path node) (E.wal_path copy);
  let eng = E.open_db copy in
  let items = E.items eng in
  E.close eng;
  cleanup copy;
  items

(* A faulted run over 2 replicas: the commits it promised, and where
   its crash fired, if one did. *)
let faulted_run ~sync ~spec base =
  let acked = ref [] in
  match
    G.open_group ~replicas:2 ~sync ~faults:(F.spec_of_string spec) base
  with
  | exception F.Crash site -> (!acked, Some site)
  | g -> (
      try
        for t = 1 to 6 do
          let txn = G.begin_txn g in
          G.write g ~txn (Printf.sprintf "x%d" (t mod 4)) t;
          match G.commit g ~txn with
          | G.Acked when sync = M.Quorum -> acked := txn :: !acked
          | G.Acked | G.Local_only -> ()
        done;
        G.close g;
        (!acked, None)
      with F.Crash _ ->
        (try G.crash g with _ -> ());
        (!acked, Option.map (fun c -> c.F.site) (F.crashed_at (G.fault g))))

let run_cell ~what ~sync ~spec ~failover =
  let base = fresh_base () in
  (* phase 1: a faulted run; record what was promised *)
  let acked, _ = faulted_run ~sync ~spec base in
  (* phase 2: heal faultlessly, optionally fail over, and audit *)
  (match G.open_group base with
  | exception e ->
      fail "%s: healing reopen raised %s" what (Printexc.to_string e)
  | g ->
      if failover then ignore (G.failover g : int);
      G.catch_up g;
      (* the heal's own commit must reach the ack journal, even when a
         crash tore the last ack before it *)
      (if sync = M.Quorum then
         let txn = G.begin_txn g in
         G.write g ~txn "heal" 1;
         match G.commit g ~txn with
         | G.Local_only -> fail "%s: the heal commit missed quorum" what
         | G.Acked ->
             if not (List.exists (fun a -> a.M.txn = txn) (M.load_acks base))
             then
               fail "%s: heal commit %d not read back from the ack journal"
                 what txn);
      let committed =
        List.filter_map
          (fun { W.record; _ } ->
            match record with W.Commit t -> Some t | _ -> None)
          (W.read_entries (E.wal_path (M.node_path base (G.primary_id g))))
      in
      List.iter
        (fun txn ->
          if not (List.mem txn committed) then
            fail "%s: acked txn %d lost" what txn)
        acked;
      let primary = G.primary_id g and items = G.items g in
      G.close g;
      let d = match M.load_group base with Some d -> d.M.nodes | None -> 0 in
      let primary_log = read_file (E.wal_path (M.node_path base primary)) in
      for k = 0 to d - 1 do
        let node = M.node_path base k in
        if k <> primary then
          if read_file (E.wal_path node) <> primary_log then
            fail "%s: node %d's log is not level with the primary's" what k
          else if promoted_items node <> items then
            fail "%s: node %d's promoted copy differs from the primary" what k
      done;
      for k = 0 to d - 1 do
        let wal = E.wal_path (M.node_path base k) in
        match errors (Analysis.Wal_lint.lint_file wal) with
        | [] -> ()
        | e :: _ -> fail "%s: node %d wal lint: %s %s" what k e.D.code e.D.message
      done;
      (match errors (Analysis.Replication_lint.lint_base base) with
      | [] -> ()
      | e :: _ -> fail "%s: repl lint: %s %s" what e.D.code e.D.message));
  cleanup base

(* The crash budget whose crash lands on an ack append, found by
   stepping, so the cell follows changes in I/O counts. *)
let ack_crash_budget ~seed =
  let rec step n =
    if n > 200 then failwith "no crash budget lands on an ack append"
    else
      let base = fresh_base () in
      let spec = Printf.sprintf "crash=%d,seed=%d" n seed in
      let _, site = faulted_run ~sync:M.Quorum ~spec base in
      cleanup base;
      if site = Some "ack journal append" then n else step (n + 1)
  in
  step 0

let () =
  (* the last cell's seed: 100 + its index *)
  let ack_crash = ack_crash_budget ~seed:107 in
  let cells =
    [
      ("quorum clean", M.Quorum, "", false);
      ("quorum drop 30%", M.Quorum, "drop=0.3", false);
      ("quorum crash 15", M.Quorum, "crash=15", false);
      ("quorum crash 25 + drop", M.Quorum, "crash=25,drop=0.2", true);
      ("quorum partition 20%", M.Quorum, "part=0.2", true);
      ("async drop 40%", M.Async, "drop=0.4", false);
      ("async crash 20", M.Async, "crash=20", true);
      ( Printf.sprintf "quorum crash %d on an ack append" ack_crash,
        M.Quorum,
        Printf.sprintf "crash=%d" ack_crash,
        false );
    ]
  in
  List.iteri
    (fun i (what, sync, spec, failover) ->
      let spec =
        if spec = "" then "" else Printf.sprintf "%s,seed=%d" spec (100 + i)
      in
      run_cell ~what ~sync ~spec ~failover)
    cells;
  if !failures = 0 then
    say "repl smoke: %d cell(s) converged, acked commits kept, lints clean"
      (List.length cells)
  else begin
    say "repl smoke: %d failure(s)" !failures;
    exit 1
  end
