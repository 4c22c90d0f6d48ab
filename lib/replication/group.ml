(* The replication-group orchestrator.  The primary is an ordinary
   Storage.Engine; what this module adds is the shipping side: after
   every commit, read the durable WAL bytes each replica is missing
   straight from the log file and send them over Distributed.Net,
   stamped with the group epoch.  Replicas are byte-prefix copies, so
   "how far along is node k" is a single integer (its clean log
   length) and every protocol decision — quorum, catch-up, promotion —
   is a comparison of byte offsets.

   The checkpoint contract is the one subtlety.  ARIES redo starts at
   the last Checkpoint in the log, trusting that the pages it covers
   are on disk; a replica that holds the log bytes but not the pages
   would recover wrong state if promoted.  So any shipped chunk that
   carries a Checkpoint is followed by a page ship of the primary's
   database image, and failover refuses to promote a node whose
   snapshot watermark is behind its last shipped checkpoint. *)

module E = Storage.Engine
module Wal = Storage.Wal
module Fault = Storage.Fault
module Net = Distributed.Net
module Counter = Obs.Registry.Counter

type outcome = Acked | Local_only

exception Fenced of int

type instruments = {
  m_commits : Counter.t;
  m_quorum : Counter.t;
  m_missed : Counter.t;
  m_ships : Counter.t;
  m_ship_bytes : Counter.t;
  m_snapshots : Counter.t;
  m_failovers : Counter.t;
  g_lag : Obs.Registry.Gauge.t;
}

type t = {
  base_path : string;
  nodes : int;
  sync : Repl_meta.sync_mode;
  fault : Fault.t;
  net : Net.t;
  metrics : Obs.Registry.t;
  trace : Obs.Trace.t;
  mutable engine : E.t;
  mutable primary_id : int;
  mutable epoch : int;
  replicas : (int, Replica.t) Hashtbl.t;
  acked : (int, int) Hashtbl.t;  (* node -> acked offset; -1 = diverged *)
  mutable journal : Storage.Log_file.t option;
      (* the ack journal, opened at the first ack *)
  m : instruments;
  mutable fenced : int option;
  mutable acked_commits : int;  (* commits answered Acked by this handle *)
  mutable local_commits : int;  (* ... and Local_only *)
}

(* --- file helpers (all read-only; shipping never holds the engine's
   descriptors) ------------------------------------------------------ *)

let primary_path t = Repl_meta.node_path t.base_path t.primary_id
let primary_wal t = E.wal_path (primary_path t)

(* Is node k's log a verbatim prefix of the primary's durable log?
   Returns the prefix length, or -1 (diverged — only a snapshot can
   heal it). *)
let verify_prefix t r ~durable =
  let n = Replica.durable_lsn r in
  if n > durable then -1
  else if n = 0 then 0
  else
    let p = Support.Io.read_span (primary_wal t) ~from:0 ~len:n in
    let q = Support.Io.read_span (E.wal_path (Replica.path r)) ~from:0 ~len:n in
    if String.equal p q then n else -1

let make_instruments registry =
  let counter = Obs.Registry.counter registry in
  {
    m_commits =
      counter ~unit:"txns" ~help:"commits executed on the primary"
        "repl.commits";
    m_quorum =
      counter ~unit:"txns" ~help:"commits acknowledged by a quorum"
        "repl.quorum_acks";
    m_missed =
      counter ~unit:"txns" ~help:"commits that missed quorum (local only)"
        "repl.quorum_misses";
    m_ships =
      counter ~unit:"chunks" ~help:"WAL chunks shipped to replicas"
        "repl.ships";
    m_ship_bytes =
      counter ~unit:"bytes" ~help:"WAL bytes shipped to replicas"
        "repl.ship_bytes";
    m_snapshots =
      counter ~unit:"ships" ~help:"full snapshots (page image + log) shipped"
        "repl.snapshots";
    m_failovers =
      counter ~unit:"events" ~help:"failovers performed" "repl.failovers";
    g_lag =
      Obs.Registry.gauge registry ~unit:"bytes"
        ~help:"worst replica lag after the last ship" "repl.lag_bytes";
  }

let () = ignore (make_instruments Obs.Registry.declared)

(* --- shipping ------------------------------------------------------- *)

let exchange t ~reliable ~site handler =
  if reliable then Net.call t.net ~site handler
  else
    match Net.once t.net ~site handler with
    | Net.Reply x -> Ok x
    | Net.Lost { processed } -> Error processed

(* Full catch-up for a fresh or diverged node: the primary's page image
   plus its whole durable log, installed atomically on the replica. *)
let send_snapshot t ~reliable k r ~durable =
  Obs.Trace.with_span t.trace "repl.snapshot" (fun () ->
      let db_image =
        let path = primary_path t in
        if Sys.file_exists path then Some (Support.Io.read_file path) else None
      in
      let wal_image = Support.Io.read_span (primary_wal t) ~from:0 ~len:durable in
      let epoch = t.epoch in
      match
        exchange t ~reliable
          ~site:(Printf.sprintf "snapshot replica %d" k)
          (fun () ->
            Replica.install_snapshot r ~epoch ~db_image ~wal_image
              ~snapshot_lsn:durable;
            durable)
      with
      | Ok n ->
          Counter.incr t.m.m_snapshots;
          Hashtbl.replace t.acked k n
      | Error _ -> Hashtbl.replace t.acked k (-1))

let ship_replica t ~reliable k ~durable =
  match Hashtbl.find_opt t.replicas k with
  | None -> ()
  | Some r ->
      let acked =
        match Hashtbl.find_opt t.acked k with Some a -> a | None -> 0
      in
      if acked < 0 then send_snapshot t ~reliable k r ~durable
      else
        let rec go from budget =
          if from >= durable || budget = 0 then Hashtbl.replace t.acked k from
          else begin
            let chunk =
              Support.Io.read_span (primary_wal t) ~from ~len:(durable - from)
            in
            let checkpoint, _ =
              Wal.walk chunk ~init:false ~f:(fun found _ kind _ ->
                  found || kind = `Checkpoint)
            in
            if checkpoint then
              (* a Checkpoint may only travel with the page image its
                 redo-start contract assumes: take the snapshot path *)
              send_snapshot t ~reliable k r ~durable
            else begin
              Counter.incr t.m.m_ships;
              Counter.add t.m.m_ship_bytes (String.length chunk);
              let epoch = t.epoch in
              match
                exchange t ~reliable
                  ~site:(Printf.sprintf "ship replica %d" k)
                  (fun () -> Replica.receive r ~epoch ~start:from ~chunk)
              with
              | Ok (Replica.Acked n) ->
                  Hashtbl.replace t.acked k n;
                  if n < durable then go n (budget - 1)
              | Ok (Replica.Gap want) -> go want (budget - 1)
              | Ok Replica.Snapshot_needed ->
                  send_snapshot t ~reliable k r ~durable
              | Ok Replica.Stale_epoch ->
                  (* a newer epoch exists somewhere: we are deposed *)
                  t.fenced <- Some (Replica.epoch r)
              | Error _ -> ()  (* lost; the node lags until the next ship *)
            end
          end
        in
        go acked 4

let replica_ids t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.replicas [] |> List.sort compare

let update_lag t ~durable =
  let worst =
    List.fold_left
      (fun acc k ->
        let a =
          match Hashtbl.find_opt t.acked k with
          | Some a when a >= 0 -> a
          | _ -> 0
        in
        min acc a)
      durable (replica_ids t)
  in
  Obs.Registry.Gauge.set t.m.g_lag (durable - worst)

let ship_all t ~reliable ~durable =
  Obs.Trace.with_span t.trace "repl.ship" (fun () ->
      List.iter (fun k -> ship_replica t ~reliable k ~durable) (replica_ids t);
      update_lag t ~durable)

(* --- lifecycle ------------------------------------------------------ *)

let durable_now t = Wal.durable_lsn (E.wal t.engine)

let catch_up t =
  Obs.Trace.with_span t.trace "repl.catchup" (fun () ->
      ship_all t ~reliable:true ~durable:(durable_now t))

(* The process dies: every descriptor the group holds is dropped. *)
let crash t =
  E.crash t.engine;
  Option.iter Storage.Log_file.abandon t.journal;
  t.journal <- None;
  Hashtbl.iter (fun _ r -> Replica.abandon r) t.replicas

let open_group ?replicas ?sync ?faults ?crash_after
    ?(metrics = Obs.Registry.noop) ?(trace = Obs.Trace.noop) base =
  let described = Repl_meta.load_group base in
  let nodes =
    match (described, replicas) with
    | Some g, Some r -> max g.Repl_meta.nodes (1 + r)
    | Some g, None -> g.Repl_meta.nodes
    | None, Some r -> 1 + r
    | None, None -> (
        match Repl_meta.discover base with
        | 0 | 1 ->
            invalid_arg
              "Group.open_group: no replica count given and no replica \
               files found"
        | n -> n)
  in
  if nodes < 2 then
    invalid_arg "Group.open_group: a replication group needs at least 2 nodes";
  let sync =
    match (sync, described) with
    | Some s, _ -> s
    | None, Some g -> g.Repl_meta.sync
    | None, None -> Repl_meta.Quorum
  in
  let epoch, primary_id =
    match described with
    | Some g -> (g.Repl_meta.epoch, g.Repl_meta.primary)
    | None -> (1, 0)
  in
  let fault = Fault.create () in
  (match faults with Some s -> Fault.configure fault s | None -> ());
  (match crash_after with Some n -> Fault.arm fault n | None -> ());
  Fault.set_metrics fault metrics;
  Repl_meta.save_group ~fault base
    { Repl_meta.epoch; primary = primary_id; nodes; sync };
  let net =
    Net.create ~prefix:"repl" ~metrics ~fault ~seed:0 Net.default_config
  in
  let engine =
    E.open_db ~fault ~metrics ~trace (Repl_meta.node_path base primary_id)
  in
  let t =
    {
      base_path = base;
      nodes;
      sync;
      fault;
      net;
      metrics;
      trace;
      engine;
      primary_id;
      epoch;
      replicas = Hashtbl.create 4;
      acked = Hashtbl.create 4;
      journal = None;
      m = make_instruments metrics;
      fenced = None;
      acked_commits = 0;
      local_commits = 0;
    }
  in
  try
    let durable = durable_now t in
    (* the primary's own files are self-consistent by construction; stamp
       its watermark so a later failover can judge it as a candidate *)
    Repl_meta.save_node ~fault (primary_path t) ~epoch ~snapshot_lsn:durable;
    for k = 0 to nodes - 1 do
      if k <> primary_id then begin
        let r =
          Replica.attach ~metrics ~fault ~node_id:k ~epoch
            (Repl_meta.node_path base k)
        in
        Hashtbl.replace t.replicas k r;
        Hashtbl.replace t.acked k (verify_prefix t r ~durable)
      end
    done;
    catch_up t;
    t
  with e ->
    crash t;
    raise e

let close t =
  E.close t.engine;
  (* the shutdown checkpoint is on disk; ship the final tail (and the
     page images it implies) so surviving replicas end byte-identical.
     Its length is the log file's clean length, not the WAL's durable
     LSN: a silent torn flush leaves the file shorter than that *)
  let (), durable, _ =
    Wal.walk_file (primary_wal t) ~init:() ~f:(fun () _ _ _ -> ())
  in
  Repl_meta.save_node ~fault:t.fault (primary_path t) ~epoch:t.epoch
    ~snapshot_lsn:durable;
  ship_all t ~reliable:true ~durable;
  Option.iter Storage.Log_file.close t.journal;
  t.journal <- None;
  Hashtbl.iter (fun _ r -> Replica.close r) t.replicas

(* --- the transactional facade -------------------------------------- *)

let check_fenced t =
  match t.fenced with Some e -> raise (Fenced e) | None -> ()

let begin_txn t =
  check_fenced t;
  E.begin_txn t.engine

let write t ~txn item v = E.write t.engine ~txn item v
let read t item = E.read t.engine item
let abort t ~txn = E.abort t.engine ~txn

let ship_commit t ~txn =
  E.commit t.engine ~txn;
  Counter.incr t.m.m_commits;
  let durable = durable_now t in
  let reliable = t.sync = Repl_meta.Quorum in
  ship_all t ~reliable ~durable;
  match t.sync with
  | Repl_meta.Async -> Acked
  | Repl_meta.Quorum ->
      let replica_acks =
        Hashtbl.fold
          (fun _ a n -> if a >= durable then n + 1 else n)
          t.acked 0
      in
      (* the primary's own copy counts toward the majority — unless the
         ship just revealed a newer epoch, in which case this deposed
         primary must not promise anything *)
      if t.fenced = None && 2 * (replica_acks + 1) > t.nodes then begin
        let journal =
          match t.journal with
          | Some j -> j
          | None ->
              let j = Repl_meta.open_journal ~fault:t.fault t.base_path in
              t.journal <- Some j;
              j
        in
        Repl_meta.append_ack journal
          { Repl_meta.txn; lsn = durable; ack_epoch = t.epoch };
        Counter.incr t.m.m_quorum;
        Acked
      end
      else begin
        Counter.incr t.m.m_missed;
        Local_only
      end

let commit t ~txn =
  let outcome = ship_commit t ~txn in
  (match outcome with
  | Acked -> t.acked_commits <- t.acked_commits + 1
  | Local_only -> t.local_commits <- t.local_commits + 1);
  outcome

(* The scheduler's view.  A Local_only commit is durable on the primary,
   so it is [Committed]: retrying it would write it twice.  A fenced
   primary stops the run the way an unflushable WAL does. *)
let backend t =
  {
    Storage.Executor.begin_txn =
      (fun () ->
        try begin_txn t
        with Fenced e ->
          raise (E.Read_only (Printf.sprintf "primary fenced by epoch %d" e)));
    read = read t;
    write = write t;
    commit =
      (fun ~txn ->
        ignore (commit t ~txn : outcome);
        Storage.Executor.Committed);
    abort = abort t;
    crash = (fun () -> crash t);
    settle = ignore;
    unsettled = (fun _ -> false);
    degraded = (fun () -> E.read_only t.engine || t.fenced <> None);
    fault = t.fault;
    metrics = t.metrics;
    trace = t.trace;
  }

(* --- failover ------------------------------------------------------- *)

(* Judge a node's files as a promotion candidate: its clean log length,
   and whether its snapshot watermark covers its last checkpoint (the
   redo-start contract; a node failing it would recover wrong state). *)
let judge_candidate path =
  let last_checkpoint, clean, _ =
    Wal.walk_file (E.wal_path path) ~init:None ~f:(fun last lsn kind _ ->
        if kind = `Checkpoint then Some lsn else last)
  in
  let snap =
    match Repl_meta.load_node path with Some (_, s) -> s | None -> 0
  in
  let eligible =
    match last_checkpoint with None -> true | Some c -> snap >= c
  in
  (clean, eligible)

let failover t =
  Obs.Trace.with_span t.trace "repl.failover" (fun () ->
      (* the primary dies, and with it the ack journal it appended to;
         the new primary reopens the journal at its first ack *)
      E.crash t.engine;
      Option.iter Storage.Log_file.abandon t.journal;
      t.journal <- None;
      let old = t.primary_id in
      let candidates =
        List.filter (fun k -> k <> old) (List.init t.nodes (fun k -> k))
      in
      let best =
        List.fold_left
          (fun acc k ->
            let len, eligible =
              judge_candidate (Repl_meta.node_path t.base_path k)
            in
            match acc with
            | None -> Some (k, len, eligible)
            | Some (_, best_len, best_ok) ->
                (* longest eligible log wins; ties go to the lowest id;
                   an eligible node always beats an ineligible one *)
                if (eligible && not best_ok)
                   || (eligible = best_ok && len > best_len)
                then Some (k, len, eligible)
                else acc)
          None candidates
      in
      let winner =
        match best with
        | Some (k, _, _) -> k
        | None -> invalid_arg "Group.failover: no candidate node"
      in
      let epoch' = t.epoch + 1 in
      let win_path = Repl_meta.node_path t.base_path winner in
      Repl_meta.save_group ~fault:t.fault t.base_path
        { Repl_meta.epoch = epoch'; primary = winner; nodes = t.nodes;
          sync = t.sync };
      t.epoch <- epoch';
      t.primary_id <- winner;
      Option.iter Replica.close (Hashtbl.find_opt t.replicas winner);
      Hashtbl.remove t.replicas winner;
      Hashtbl.remove t.acked winner;
      t.engine <- E.open_db ~fault:t.fault ~metrics:t.metrics ~trace:t.trace win_path;
      let durable = durable_now t in
      Repl_meta.save_node ~fault:t.fault win_path ~epoch:epoch'
        ~snapshot_lsn:durable;
      Counter.incr t.m.m_failovers;
      (* the deposed primary rejoins as a (typically diverged) replica *)
      let r_old =
        Replica.attach ~metrics:t.metrics ~fault:t.fault ~node_id:old ~epoch:1
          (Repl_meta.node_path t.base_path old)
      in
      Hashtbl.replace t.replicas old r_old;
      Hashtbl.replace t.acked old (verify_prefix t r_old ~durable);
      (* surviving replicas held prefixes of the winner's log (the
         winner had the longest); re-anchor their watermarks *)
      List.iter
        (fun k ->
          if k <> old then
            match Hashtbl.find_opt t.replicas k with
            | Some r -> Hashtbl.replace t.acked k (verify_prefix t r ~durable)
            | None -> ())
        (replica_ids t);
      (* a replica already level with the winner gets nothing from the
         catch-up (an idle open of the winner logs nothing), so it would
         keep the old epoch and accept a late ship from the deposed
         primary: an empty chunk at its end carries the new epoch *)
      List.iter
        (fun k ->
          match (Hashtbl.find_opt t.replicas k, Hashtbl.find_opt t.acked k) with
          | Some r, Some at when at >= durable ->
              ignore
                (exchange t ~reliable:true
                   ~site:(Printf.sprintf "ship replica %d" k)
                   (fun () -> Replica.receive r ~epoch:epoch' ~start:at ~chunk:"")
                  : (Replica.receipt, bool) result)
          | _ -> ())
        (replica_ids t);
      winner)

(* --- accessors ------------------------------------------------------ *)

let items t = E.items t.engine
let primary t = t.engine
let primary_id t = t.primary_id
let epoch t = t.epoch
let node_count t = t.nodes
let sync_mode t = t.sync
let replica t k = Hashtbl.find_opt t.replicas k

let lag t =
  let durable = durable_now t in
  List.fold_left
    (fun acc k ->
      let a =
        match Hashtbl.find_opt t.acked k with
        | Some a when a >= 0 -> a
        | _ -> 0
      in
      max acc (durable - a))
    0 (replica_ids t)

let commits t = (t.acked_commits, t.local_commits)
let fenced t = t.fenced
let fault t = t.fault
let net_ticks t = Net.ticks t.net
let base t = t.base_path

(* --- the model check ------------------------------------------------ *)

let model_divergence ~path =
  let primary =
    match Repl_meta.load_group path with
    | Some g -> g.Repl_meta.primary
    | None -> 0
  in
  let expected =
    Storage.Executor.committed_items
      (List.map
         (fun e -> e.Wal.record)
         (Wal.read_entries (E.wal_path (Repl_meta.node_path path primary))))
  in
  let g = open_group path in
  let actual = items g in
  close g;
  if expected = actual then None else Some (expected, actual)
