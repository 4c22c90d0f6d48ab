(* Two-phase commit with presumed abort over N Storage.Engine shards.

   The protocol, per multi-shard transaction:
     phase 1 — log Begin(participants) lazily, send PREPARE to each
       participant (Engine.prepare: force writes + Prepare record, keep
       locks), log each Vote.  Any no-vote or exhausted retry budget
       decides abort.
     phase 2 — on all-yes: append Decide(commit) and FLUSH (the commit
       point), then send COMMIT to each participant and log Forget once
       all acknowledge.  On abort: append Decide(abort) unforced
       (presumed abort) and send ABORTs.

   Single-participant transactions take the one-phase optimization: a
   single COMMIT message, no coordinator logging at all.

   A decision the coordinator could not deliver leaves the shard
   "stranded": prepared (or active), locks held, until a later [nudge]
   re-sends the decision — or until restart, when the termination
   protocol resolves every in-doubt prepared transaction against the
   coordinator log: a surviving Decide(commit) is completed by
   appending a Commit record to the shard's WAL before the engine
   opens; anything else is presumed aborted and undone by ordinary
   restart recovery.

   Soundness under the crash budget rests on prefix durability: the
   participant's Prepare is flushed before its yes-vote is sent, and
   every durable I/O in the process is sequenced, so a surviving
   coordinator Decide implies every participant's Prepare survived. *)

module Engine = Storage.Engine
module Wal = Storage.Wal
module Fault = Storage.Fault
module Log_file = Storage.Log_file

type outcome = Committed | Aborted of string

type metrics = {
  m_begins : Obs.Registry.Counter.t;
  m_commits : Obs.Registry.Counter.t;
  m_aborts : Obs.Registry.Counter.t;
  m_onephase : Obs.Registry.Counter.t;
  m_prepares : Obs.Registry.Counter.t;
  m_stranded : Obs.Registry.Counter.t;
  m_resolved : Obs.Registry.Counter.t;
}

let make_metrics registry =
  let counter = Obs.Registry.counter registry in
  {
    m_begins =
      counter ~unit:"txns" ~help:"distributed transactions begun" "2pc.begins";
    m_commits =
      counter ~unit:"txns" ~help:"transactions decided commit" "2pc.commits";
    m_aborts =
      counter ~unit:"txns" ~help:"transactions decided abort" "2pc.aborts";
    m_onephase =
      counter ~unit:"txns"
        ~help:"single-shard transactions committed without the protocol"
        "2pc.onephase";
    m_prepares =
      counter ~unit:"msgs" ~help:"PREPARE exchanges answered yes"
        "2pc.prepares";
    m_stranded =
      counter ~unit:"txns"
        ~help:"decisions that could not be delivered to every shard"
        "2pc.stranded";
    m_resolved =
      counter ~unit:"txns"
        ~help:"in-doubt prepared transactions resolved at restart"
        "2pc.resolved";
  }

let () = ignore (make_metrics Obs.Registry.declared)

type t = {
  base : string;
  shards : Engine.t array;
  log : Log_file.t;  (* the coordinator log, in Coord_log's codec *)
  net : Net.t;
  fault : Fault.t;
  trace : Obs.Trace.t;
  m : metrics;
  active : (int, int list ref) Hashtbl.t;
      (* txn -> participant shards, newest-touched first *)
  stranded : (int, Coord_log.decision * int list ref) Hashtbl.t;
      (* txn -> (decision, shards it still has not reached) *)
  mutable next_txn : int;
  mutable degraded : bool;  (* the coordinator log became unflushable *)
  resolved_commit : int;
  resolved_abort : int;
}

(* --- file layout --------------------------------------------------------- *)

let shard_path base k = Printf.sprintf "%s.shard%d" base k
let coord_path base = base ^ ".2pc"

let discover base =
  let rec count k = if Sys.file_exists (shard_path base k) then count (k + 1) else k in
  count 0

(* --- the termination protocol -------------------------------------------- *)

(* Complete decided-commit transactions on a shard whose engine is not
   open: open its WAL from [from], the shard's anchor (which cuts the
   torn tail once: appending after damage would read as mid-log
   corruption), append a Commit frame per transaction and flush them
   together.  The engine's own restart recovery, walking from the same
   anchor, then sees ordinary winners.  Idempotent: a crash mid-append
   leaves a prefix of whole frames (the torn one is the new tail,
   re-resolved next time). *)
let append_commits_offline fault wal_file ~from txns ~site =
  let log, _ = Log_file.open_file ~fault ~valid:Wal.valid ~from wal_file in
  let commit txn = Wal.frame_of_record (Wal.Commit txn) in
  match
    List.iter (fun txn -> ignore (Log_file.append log (commit txn) : int)) txns;
    Log_file.flush log ~at:site ~fsync_at:site
  with
  | () -> Log_file.close log
  | exception e ->
      Log_file.abandon log;
      raise e

(* In-doubt transactions among one shard log's frames, (kind, txn)
   oldest first: prepared and still live at the end. *)
let in_doubt_txns frames =
  let live = Hashtbl.create 8 in
  let prepared = Hashtbl.create 8 in
  List.iter
    (fun (kind, t) ->
      match kind with
      | `Begin -> Hashtbl.replace live t ()
      | `Prepare -> if Hashtbl.mem live t then Hashtbl.replace prepared t ()
      | `Commit | `Abort ->
          Hashtbl.remove live t;
          Hashtbl.remove prepared t
      | `Write | `Checkpoint -> ())
    frames;
  Hashtbl.fold (fun t () acc -> t :: acc) prepared [] |> List.sort Int.compare

(* Resolve every shard's in-doubt prepared transactions against the
   coordinator log, before any engine opens.  Each shard log is read
   from the anchor its engine's open will walk from: the anchor is a
   quiescent checkpoint, so no in-doubt transaction begins before it.
   Returns (commits, aborts) resolved. *)
let resolve_in_doubt fault base n coord_entries =
  let decision = Coord_log.decisions coord_entries in
  let commits = ref 0 and aborts = ref 0 in
  for k = 0 to n - 1 do
    let wal_file = Engine.wal_path (shard_path base k) in
    let from =
      match Engine.log_anchor (shard_path base k) with
      | Some (lsn, _) -> lsn
      | None -> 0
    in
    let frames, _ =
      Wal.walk (Support.Io.read_span wal_file ~from ~len:max_int) ~init:[]
        ~f:(fun acc _ kind t -> (kind, t) :: acc)
    in
    let to_complete =
      List.filter
        (fun txn ->
          match Hashtbl.find_opt decision txn with
          | Some Coord_log.Commit -> true
          | Some Coord_log.Abort | None ->
              (* presumed abort: restart recovery undoes the loser *)
              incr aborts;
              false)
        (in_doubt_txns (List.rev frames))
    in
    if to_complete <> [] then begin
      append_commits_offline fault wal_file ~from to_complete
        ~site:(Printf.sprintf "shard %d resolve" k);
      commits := !commits + List.length to_complete
    end
  done;
  (!commits, !aborts)

(* --- open / close -------------------------------------------------------- *)

let max_txn_of_coord entries =
  List.fold_left
    (fun m { Coord_log.record; _ } ->
      match record with
      | Coord_log.Begin { txn; _ }
      | Coord_log.Vote { txn; _ }
      | Coord_log.Decide { txn; _ }
      | Coord_log.Forget txn -> max m txn)
    0 entries

(* whether shard [k]'s log holds a transaction that committed, or that
   a coordinator decision may yet commit: a Commit or Prepare frame *)
let holds_commits base k =
  let found, _, _ =
    Wal.walk_file (Engine.wal_path (shard_path base k)) ~init:false
      ~f:(fun found _ kind _ ->
        found || match kind with `Commit | `Prepare -> true | _ -> false)
  in
  found

let open_dist ?shards ?faults ?crash_after
    ?(metrics = Obs.Registry.noop) ?(trace = Obs.Trace.noop) base =
  let n =
    match shards with
    | Some n ->
        if n <= 0 then invalid_arg "Coordinator.open_dist: shards must be positive";
        let found = discover base in
        if
          found <> n
          && List.exists (holds_commits base) (List.init found Fun.id)
        then
          invalid_arg
            (Printf.sprintf
               "Coordinator.open_dist: %s has %d shard(s) holding committed \
                data; opening it with %d would re-route its items"
               base found n);
        n
    | None -> (
        match discover base with
        | 0 ->
            invalid_arg
              (Printf.sprintf
                 "Coordinator.open_dist: no shard files at %s; pass ~shards"
                 base)
        | n -> n)
  in
  let fault = Fault.create () in
  Fault.set_metrics fault metrics;
  (match faults with Some spec -> Fault.configure fault spec | None -> ());
  (match crash_after with Some b -> Fault.arm fault b | None -> ());
  let m = make_metrics metrics in
  let coord_entries = Coord_log.read_file (coord_path base) in
  (* the termination protocol runs before any engine opens, so each
     engine's restart recovery already sees the completed commits *)
  let resolved_commit, resolved_abort =
    Obs.Trace.with_span trace "2pc.resolve" (fun () ->
        resolve_in_doubt fault base n coord_entries)
  in
  Obs.Registry.Counter.add m.m_resolved (resolved_commit + resolved_abort);
  let shards = Array.make n None in
  (try
     for k = 0 to n - 1 do
       shards.(k) <- Some (Engine.open_db ~fault ~metrics ~trace (shard_path base k))
     done
   with e ->
     Array.iter (function Some eng -> Engine.crash eng | None -> ()) shards;
     raise e);
  let shards = Array.map Option.get shards in
  let log, _ =
    try Log_file.open_file ~fault ~valid:Coord_log.valid (coord_path base)
    with e ->
      Array.iter Engine.crash shards;
      raise e
  in
  (* each engine's restart analysis already knows one past the largest
     id its log names *)
  let next_txn =
    Array.fold_left
      (fun m eng -> max m (Engine.next_txn eng))
      (max_txn_of_coord coord_entries + 1)
      shards
  in
  let net = Net.create ~metrics ~fault ~seed:0 Net.default_config in
  {
    base;
    shards;
    log;
    net;
    fault;
    trace;
    m;
    active = Hashtbl.create 16;
    stranded = Hashtbl.create 8;
    next_txn;
    degraded = false;
    resolved_commit;
    resolved_abort;
  }

(* the coordinator log's fault sites *)
let log_append t record =
  ignore (Log_file.append t.log (Coord_log.frame record) : int)

let log_flush t = Log_file.flush t.log ~at:"coord flush" ~fsync_at:"coord fsync"

let crash t =
  Log_file.abandon t.log;
  Array.iter Engine.crash t.shards

let close t =
  (if not t.degraded then
     match log_flush t with
     | () -> Log_file.close t.log
     | exception Fault.Io_error _ ->
         t.degraded <- true;
         Log_file.abandon t.log
   else Log_file.abandon t.log);
  let err = ref None in
  Array.iter
    (fun eng ->
      match Engine.close eng with
      | () -> ()
      | exception e ->
          Engine.crash eng;
          if !err = None then err := Some e)
    t.shards;
  match !err with Some e -> raise e | None -> ()

(* --- accessors ----------------------------------------------------------- *)

let shard_count t = Array.length t.shards
let shard t k = t.shards.(k)
let fault t = t.fault
let net_ticks t = Net.ticks t.net
let resolved t = (t.resolved_commit, t.resolved_abort)

let degraded t =
  t.degraded || Array.exists Engine.read_only t.shards

let stranded_txns t =
  Hashtbl.fold (fun txn _ acc -> txn :: acc) t.stranded [] |> List.sort Int.compare

let is_stranded t txn = Hashtbl.mem t.stranded txn

let items t =
  Array.to_list t.shards
  |> List.concat_map Engine.items
  |> List.sort compare

let recoveries t =
  Array.to_list t.shards |> List.map Engine.last_recovery

(* --- the transaction API ------------------------------------------------- *)

let participants t txn =
  match Hashtbl.find_opt t.active txn with
  | Some parts -> parts
  | None -> raise (Engine.No_such_transaction txn)

let begin_txn t =
  if t.degraded then raise (Engine.Read_only "coordinator log unflushable");
  let id = t.next_txn in
  t.next_txn <- id + 1;
  Hashtbl.replace t.active id (ref []);
  Obs.Registry.Counter.incr t.m.m_begins;
  id

let route t item = Router.shard_of ~shards:(Array.length t.shards) item

let write t ~txn item value =
  let parts = participants t txn in
  let k = route t item in
  if not (List.mem k !parts) then begin
    ignore (Engine.begin_txn ~id:txn t.shards.(k) : int);
    parts := k :: !parts
  end;
  Engine.write t.shards.(k) ~txn item value

let read t item = Engine.read t.shards.(route t item) item

let strand t txn decision lost =
  Hashtbl.replace t.stranded txn (decision, ref lost);
  Obs.Registry.Counter.incr t.m.m_stranded

(* Deliver the abort decision to each participant.  Engine.abort works
   even on a degraded shard (best-effort CLRs), so the only way to miss
   a shard is message loss. *)
let deliver_aborts t ~txn parts =
  let lost =
    List.filter
      (fun k ->
        let handler () =
          try Engine.abort t.shards.(k) ~txn
          with Engine.No_such_transaction _ -> ()
        in
        match
          Net.call t.net ~site:(Printf.sprintf "abort shard %d" k) handler
        with
        | Ok () -> false
        | Error _ -> true)
      parts
  in
  if lost <> [] then strand t txn Coord_log.Abort lost

(* Deliver the commit decision.  Only a [Reply] acknowledges: a lost
   exchange whose handler did run has still committed the shard, but
   the coordinator cannot know, so the shard stays formally stranded
   until a nudge gets a reply through (the re-sent COMMIT lands on
   [No_such_transaction] and acknowledges trivially). *)
let deliver_commits t ~txn parts =
  let lost =
    List.filter
      (fun k ->
        let handler () =
          try
            Engine.commit t.shards.(k) ~txn;
            true
          with
          | Engine.No_such_transaction _ -> true
          | Engine.Read_only _ ->
              (* the shard cannot flush its Commit: in doubt locally,
                 completed by the termination protocol at restart *)
              false
        in
        match
          Net.call t.net ~site:(Printf.sprintf "commit shard %d" k) handler
        with
        | Ok true -> false
        | Ok false | Error _ -> true)
      parts
  in
  if lost = [] then begin
    if not t.degraded then log_append t (Coord_log.Forget txn)
  end
  else strand t txn Coord_log.Commit lost

let abort t ~txn =
  let parts = List.rev !(participants t txn) in
  Hashtbl.remove t.active txn;
  Obs.Registry.Counter.incr t.m.m_aborts;
  if parts <> [] && not t.degraded then
    log_append t (Coord_log.Decide { txn; decision = Coord_log.Abort });
  deliver_aborts t ~txn parts

(* The one-phase optimization: a single participant needs no protocol,
   just its own commit point. *)
let commit_one_phase t ~txn k =
  Obs.Registry.Counter.incr t.m.m_onephase;
  let handler () =
    try
      Engine.commit t.shards.(k) ~txn;
      `Ok
    with
    | Engine.No_such_transaction _ -> `Ok
    | Engine.Read_only _ -> `In_doubt
  in
  match Net.call t.net ~site:(Printf.sprintf "commit shard %d" k) handler with
  | Ok `Ok -> Committed
  | Ok `In_doubt ->
      (* no durable Commit, no coordinator Decide: a presumed-abort
         loser at restart *)
      Aborted (Printf.sprintf "shard %d degraded at commit" k)
  | Error processed_any ->
      if processed_any then
        (* the COMMIT reached the shard; only the reply was lost *)
        Committed
      else begin
        (* never delivered: abort the shard's half unilaterally *)
        strand t txn Coord_log.Abort [ k ];
        Aborted (Printf.sprintf "commit message to shard %d lost" k)
      end

let commit_two_phase t ~txn parts =
  log_append t (Coord_log.Begin { txn; shards = parts });
  (* phase 1: PREPARE everyone, collect votes *)
  let veto = ref None in
  Obs.Trace.with_span t.trace
    ~args:[ ("txn", string_of_int txn) ]
    "2pc.prepare"
    (fun () ->
      List.iter
        (fun k ->
          if !veto = None then
            let handler () =
              try
                Engine.prepare t.shards.(k) ~txn;
                true
              with Engine.Read_only _ -> false
            in
            match
              Net.call t.net
                ~site:(Printf.sprintf "prepare shard %d" k)
                handler
            with
            | Ok yes ->
                log_append t (Coord_log.Vote { txn; shard = k; yes });
                if yes then Obs.Registry.Counter.incr t.m.m_prepares
                else veto := Some (Printf.sprintf "shard %d voted no" k)
            | Error _ ->
                log_append t
                  (Coord_log.Vote { txn; shard = k; yes = false });
                veto :=
                  Some (Printf.sprintf "prepare for shard %d timed out" k))
        parts);
  (* phase 2: decide, force the commit point, deliver *)
  Obs.Trace.with_span t.trace
    ~args:
      [
        ("txn", string_of_int txn);
        ("decision", match !veto with None -> "commit" | Some _ -> "abort");
      ]
    "2pc.decide"
    (fun () ->
      match !veto with
      | None -> (
          log_append t
            (Coord_log.Decide { txn; decision = Coord_log.Commit });
          match log_flush t with
          | () ->
              Obs.Registry.Counter.incr t.m.m_commits;
              deliver_commits t ~txn parts;
              Committed
          | exception Fault.Io_error site ->
              (* the decision never became durable (the unsynced suffix
                 was truncated away), and no COMMIT has been sent: abort
                 is still sound, and the coordinator degrades *)
              t.degraded <- true;
              Obs.Registry.Counter.incr t.m.m_aborts;
              deliver_aborts t ~txn parts;
              Aborted (Printf.sprintf "coordinator log unflushable at %s" site))
      | Some reason ->
          if not t.degraded then
            log_append t
              (Coord_log.Decide { txn; decision = Coord_log.Abort });
          Obs.Registry.Counter.incr t.m.m_aborts;
          deliver_aborts t ~txn parts;
          Aborted reason)

let commit t ~txn =
  let parts = List.rev !(participants t txn) in
  Hashtbl.remove t.active txn;
  match parts with
  | [] ->
      (* read-only: nothing to make durable anywhere *)
      Obs.Registry.Counter.incr t.m.m_onephase;
      Committed
  | [ k ] -> commit_one_phase t ~txn k
  | parts ->
      if t.degraded then begin
        Obs.Registry.Counter.incr t.m.m_aborts;
        deliver_aborts t ~txn parts;
        Aborted "coordinator log unflushable"
      end
      else commit_two_phase t ~txn parts

(* Re-deliver stranded decisions, one cheap attempt per shard.  A
   commit whose earlier delivery actually ran lands on
   [No_such_transaction], which acknowledges it. *)
let nudge t =
  let finished = ref [] in
  Hashtbl.iter
    (fun txn (decision, ks) ->
      ks :=
        List.filter
          (fun k ->
            let site, handler =
              match decision with
              | Coord_log.Commit ->
                  ( Printf.sprintf "commit shard %d" k,
                    fun () ->
                      try
                        Engine.commit t.shards.(k) ~txn;
                        true
                      with
                      | Engine.No_such_transaction _ -> true
                      | Engine.Read_only _ -> false )
              | Coord_log.Abort ->
                  ( Printf.sprintf "abort shard %d" k,
                    fun () ->
                      (try Engine.abort t.shards.(k) ~txn
                       with Engine.No_such_transaction _ -> ());
                      true )
            in
            match Net.once t.net ~site handler with
            | Net.Reply true -> false
            | Net.Reply false | Net.Lost _ -> true)
          !ks;
      if !ks = [] then finished := (txn, decision) :: !finished)
    t.stranded;
  List.iter
    (fun (txn, decision) ->
      Hashtbl.remove t.stranded txn;
      if decision = Coord_log.Commit && not t.degraded then
        log_append t (Coord_log.Forget txn))
    !finished

(* The scheduler's view: a decided abort is an [Aborted] commit, and a
   stranded decision keeps the transaction unsettled until a nudge
   delivers it. *)
let backend t =
  {
    Storage.Executor.begin_txn = (fun () -> begin_txn t);
    read = read t;
    write = write t;
    commit =
      (fun ~txn ->
        match commit t ~txn with
        | Committed -> Storage.Executor.Committed
        | Aborted _ -> Storage.Executor.Aborted);
    abort = abort t;
    crash = (fun () -> crash t);
    settle = (fun () -> nudge t);
    unsettled = is_stranded t;
    degraded = (fun () -> degraded t);
    fault = t.fault;
    metrics = Engine.metrics t.shards.(0);
    trace = t.trace;
  }

(* --- the model check ----------------------------------------------------- *)

(* Expected state: Recovery.committed_state over the concatenated shard
   model logs plus a synthetic Commit for every transaction whose
   coordinator Decide(commit) survived but whose Commit record has not
   reached any shard log yet — the 2PC commit point made explicit.  The
   termination protocol appends exactly those Commits at the next open,
   so the reopened union must match. *)
let model_divergence ~path =
  let n = discover path in
  if n = 0 then invalid_arg "Coordinator.model_divergence: no shard files";
  let decided =
    List.filter_map
      (fun { Coord_log.record; _ } ->
        match record with
        | Coord_log.Decide { txn; decision = Coord_log.Commit } -> Some txn
        | _ -> None)
      (Coord_log.read_file (coord_path path))
    |> List.sort_uniq Int.compare
  in
  let records =
    List.concat_map
      (fun k ->
        List.map
          (fun e -> e.Wal.record)
          (Wal.read_entries (Engine.wal_path (shard_path path k))))
      (List.init n Fun.id)
  in
  let expected = Storage.Executor.committed_items ~decided records in
  let c = open_dist ~shards:n path in
  let actual = items c in
  close c;
  if expected = actual then None else Some (expected, actual)
