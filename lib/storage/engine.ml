(* The storage engine: pager + buffer pool + WAL + ARIES-lite recovery
   behind one transactional facade.

   Policies, stated once:
     steal    — the buffer pool may flush a dirty page while its
                transaction is running (eviction), after the WAL barrier;
     no-force — commit makes only the WAL durable, never the pages;
     strict   — per-item write locks are held to commit/abort, so undo by
                before-image is sound (the discipline Transactions.Recovery
                assumes and its docs spell out).

   Opening a database always runs restart recovery over the surviving
   log; a database file abandoned mid-flight (or killed by Fault
   injection) is repaired to exactly the committed transactions' writes.

   A clean open and close write nothing.  Checkpoints run:
     after restart, unless restart was idle — the log ends in a
       Checkpoint, no loser is open, and the open repaired nothing.  A
       checkpoint flushes and syncs every page before its record is
       logged, so such a log already says everything redo needs;
     at [save_table] and [checkpoint];
     at [close], when no transaction is active and something changed
       since the last checkpoint: a record was logged or a pool frame
       is dirty.  The pager then writes its header back only when that
       checkpoint moved it.
   The open reads the item chain's page LSNs (the quarantine check
   below) but builds the item directory only on the first item access.

   Robustness (the fault taxonomy, see Fault):
     quarantine-and-repair — a CRC-corrupt item-store page (torn write,
       bit flip) is abandoned, not fatal: the item plane is rebuilt by
       replaying every surviving WAL write record (the log is never
       truncated, so the full history is available).  A page whose LSN
       is newer than the surviving log's end betrays a lost log suffix
       (a corrupted WAL frame truncates the opening scan) and is
       quarantined the same way.
     read-only degradation — a WAL flush whose fsync fails past its
       retry budget means durability can no longer be promised: the
       engine flips to read-only and refuses begin/write/commit with
       [Read_only] instead of crashing.  Reads still work.
     Table chains are not WAL-protected; a corrupt table page remains a
       hard [Pager.Corrupt] (documented limitation).

   Tables are shadow-paged.  [save_table] writes the new data, fence and
   catalog pages where nothing the header reaches lives (the pager's
   free set, derived by [Heap.owned_pages] at the first allocation),
   makes them durable with a checkpoint, and only then switches the
   catalog root with one header write, synced before it returns.  A
   crash anywhere inside a replace leaves the old table or the new one.
   The replaced table's pages join the free set at the next open, since
   a planning context of this one may still read them; the old catalog
   chain, which no reader holds, is free at once. *)

type repair = { quarantined : int list; replayed : int }

type emetrics = {
  m_begins : Obs.Registry.Counter.t;
  m_commits : Obs.Registry.Counter.t;
  m_aborts : Obs.Registry.Counter.t;
  m_repairs : Obs.Registry.Counter.t;
  m_degraded : Obs.Registry.Gauge.t;
}

let make_metrics registry =
  let counter = Obs.Registry.counter registry in
  {
    m_begins = counter ~unit:"txns" ~help:"transactions begun" "engine.begins";
    m_commits =
      counter ~unit:"txns" ~help:"transactions committed (durable)"
        "engine.commits";
    m_aborts = counter ~unit:"txns" ~help:"transactions aborted" "engine.aborts";
    m_repairs =
      counter ~unit:"events" ~help:"quarantine-and-repair events"
        "engine.repairs";
    m_degraded =
      Obs.Registry.gauge registry ~unit:"flag"
        ~help:"1 once the engine degraded to read-only" "engine.degraded";
  }

type t = {
  pager : Pager.t;
  pool : Buffer_pool.t;
  wal : Wal.t;
  mutable items : Heap.Items.t option;  (* the directory, built on first use *)
  fault : Fault.t;
  metrics : Obs.Registry.t;
  emetrics : emetrics;
  trace : Obs.Trace.t;
  locks : (string, int) Hashtbl.t;
  active : (int, (string * int) list ref) Hashtbl.t;
      (* txn -> (item, before-image) newest first *)
  prepared : (int, unit) Hashtbl.t;
      (* active txns whose Prepare record is durable (2PC participants) *)
  mutable next_txn : int;
  mutable last_recovery : Recovery.outcome option;
  mutable read_only : bool;
  mutable degraded_reason : string option;
  mutable repairs : int;
  mutable last_repair : repair option;
  mutable checkpoint_end : int;
      (* Wal.next_lsn when the last checkpoint ended: no record has been
         logged since while the two are equal *)
}

exception Locked of string * int
exception No_such_transaction of int
exception Active_transactions
exception Unknown_table of string
exception Read_only of string

let wal_path path = path ^ ".wal"

let degrade t site =
  t.read_only <- true;
  Obs.Registry.Gauge.set t.emetrics.m_degraded 1;
  if t.degraded_reason = None then t.degraded_reason <- Some site

let check_writable t =
  if t.read_only then
    match t.degraded_reason with
    | Some site -> raise (Read_only (Printf.sprintf "wal unflushable at %s" site))
    | None -> raise (Read_only "engine is read-only")

let checkpoint_now t =
  Obs.Trace.with_span t.trace "engine.checkpoint" (fun () ->
      (* order is the whole point: pages written and synced first, the
         checkpoint record after, so a durable record vouches for the
         pages — redo may really start at it, and an open whose log ends
         in it has nothing to write *)
      Wal.flush t.wal;
      Buffer_pool.flush_all t.pool;
      Pager.sync t.pager;
      ignore (Wal.append t.wal Wal.Checkpoint : int);
      Wal.flush t.wal;
      Pager.set_flushed_lsn t.pager (Wal.durable_lsn t.wal);
      t.checkpoint_end <- Wal.next_lsn t.wal)

let checkpoint t =
  if Hashtbl.length t.active > 0 then raise Active_transactions;
  check_writable t;
  try checkpoint_now t
  with Fault.Io_error site ->
    degrade t site;
    raise (Read_only (Printf.sprintf "wal unflushable at %s" site))

(* --- quarantine and repair ----------------------------------------------- *)

(* Rebuild the item plane from scratch by replaying every surviving WAL
   write record with its LSN.  Sound because the log is never truncated:
   it holds the full history since the database was created, and the
   page-LSN test keeps the replay idempotent. *)
let replay_items pool entries =
  let items = Heap.Items.load pool in
  let replayed = ref 0 in
  List.iter
    (fun { Wal.lsn; record } ->
      match record with
      | Wal.Write { item; after; _ } ->
          ignore (Heap.Items.set items ~lsn item after : bool);
          incr replayed
      | _ -> ())
    entries;
  (items, !replayed)

let dir t =
  match t.items with
  | Some items -> items
  | None ->
      let items = Heap.Items.load t.pool in
      t.items <- Some items;
      items

let note_repair t ~quarantined ~replayed =
  Pager.forget_corrupt t.pager;
  t.repairs <- t.repairs + 1;
  Obs.Registry.Counter.incr t.emetrics.m_repairs;
  t.last_repair <- Some { quarantined; replayed }

(* Runtime repair: flush what we can (so the rebuilt plane reflects every
   applied write), abandon the corrupt chain, and rebuild from the log on
   disk.  Active transactions stay valid — their undo information is the
   WAL itself plus the in-memory before-images. *)
let repair_now t =
  Obs.Trace.with_span t.trace "engine.repair" (fun () ->
      (try Wal.flush t.wal with Fault.Io_error site -> degrade t site);
      let quarantined = Pager.corrupt_pages t.pager in
      let entries = Wal.read_entries (Wal.path t.wal) in
      Pager.set_items_root t.pager 0;
      let items, replayed = replay_items t.pool entries in
      t.items <- Some items;
      note_repair t ~quarantined ~replayed)

(* Run an item-plane access, repairing once on a CRC failure. *)
let with_repair t f =
  try f ()
  with Pager.Corrupt _ ->
    repair_now t;
    f ()

(* --- open / close --------------------------------------------------------- *)

(* The item pages an open must quarantine, or [None]: the chain's
   corrupt pages when one fails its CRC, otherwise the pages whose LSN
   lies at or past [horizon], the surviving log's end — they betray a
   lost log suffix.  Only page headers are read, through the pool; no
   record is decoded and nothing is written. *)
let quarantine pager pool ~horizon =
  match Heap.chain_lsns pool ~first:(Pager.items_root pager) with
  | lsns -> (
      match
        List.filter_map
          (fun (page, lsn) ->
            if lsn >= horizon && lsn > 0 then Some page else None)
          lsns
      with
      | [] -> None
      | future -> Some future)
  | exception Pager.Corrupt _ -> Some (Pager.corrupt_pages pager)

let repair_needed ~horizon path =
  (Sys.file_exists path && (Unix.stat path).Unix.st_size > 0)
  &&
  let pager = Pager.open_file path in
  Fun.protect
    ~finally:(fun () -> Pager.abandon pager)
    (fun () -> quarantine pager (Buffer_pool.create pager) ~horizon <> None)

let open_db ?(pool_size = 64) ?crash_after ?faults ?fault
    ?(metrics = Obs.Registry.noop) ?(trace = Obs.Trace.noop) path =
  (* [?fault] shares one injector (and so one crash budget / RNG stream)
     across several engines — how the distributed layer makes "crash at
     the N-th I/O anywhere in the system" a single budget *)
  let fault =
    match fault with
    | Some f -> f
    | None ->
        let f = Fault.create () in
        Fault.set_metrics f metrics;
        f
  in
  (match faults with Some spec -> Fault.configure fault spec | None -> ());
  (match crash_after with Some n -> Fault.arm fault n | None -> ());
  (* a zero-length file is a creation that crashed before its header
     write — treat it as fresh so such a database is still recoverable *)
  let fresh =
    (not (Sys.file_exists path)) || (Unix.stat path).Unix.st_size = 0
  in
  let pager =
    if fresh then Pager.create ~fault ~metrics path
    else Pager.open_file ~fault ~metrics path
  in
  (* the recovery span, when there is a log to recover, starts with the
     log walk, so it also covers the item-chain LSN check and any open-time
     repair below *)
  let walk_start = Obs.Trace.now trace in
  let tally = Recovery.tally () in
  let wal, image =
    try
      Wal.open_log ~fault ~metrics ~trace ~on_frame:(Recovery.note tally)
        (wal_path path)
    with e ->
      Pager.abandon pager;
      raise e
  in
  let analysis = Recovery.analysis tally in
  let pool = Buffer_pool.create ~capacity:pool_size ~metrics pager in
  Buffer_pool.set_wal_barrier pool (fun lsn -> Wal.flush_to wal lsn);
  Pager.set_owner pager (fun () -> Heap.owned_pages pool);
  let items, first_repair =
    try
      match quarantine pager pool ~horizon:(Wal.durable_lsn wal) with
      | None -> (None, None)
      | Some quarantined ->
          Pager.set_items_root pager 0;
          let items, replayed =
            replay_items pool (Wal.entries_from image 0)
          in
          (Some items, Some { quarantined; replayed })
    with e ->
      Wal.abandon wal;
      Pager.abandon pager;
      raise e
  in
  let t =
    {
      pager;
      pool;
      wal;
      items;
      fault;
      metrics;
      emetrics = make_metrics metrics;
      trace;
      locks = Hashtbl.create 16;
      active = Hashtbl.create 16;
      prepared = Hashtbl.create 4;
      next_txn = 1;
      last_recovery = None;
      read_only = false;
      degraded_reason = None;
      repairs = 0;
      last_repair = None;
      checkpoint_end = Wal.next_lsn wal;
    }
  in
  Option.iter
    (fun { quarantined; replayed } -> note_repair t ~quarantined ~replayed)
    first_repair;
  t.next_txn <- analysis.Recovery.next_txn;
  (try
     if image <> "" then begin
       let rec run_recovery tries =
         try
           Recovery.restart ~image analysis
             ~read:(fun item -> Heap.Items.get (dir t) item)
             ~write:(fun ~lsn item v -> Heap.Items.set (dir t) ~lsn item v)
             ~log:(fun r -> Wal.append t.wal r)
         with Pager.Corrupt _ when tries < 2 ->
           (* a page corrupted by recovery's own (faulty) page writes:
              quarantine, rebuild, and re-run — the replay is idempotent.
              The rebuild replays the log as it was read at open, not as
              it is on disk now: recovery may have flushed CLRs into it. *)
           let quarantined = Pager.corrupt_pages t.pager in
           Pager.set_items_root t.pager 0;
           let items, replayed =
             replay_items t.pool (Wal.entries_from image 0)
           in
           t.items <- Some items;
           note_repair t ~quarantined ~replayed;
           run_recovery (tries + 1)
       in
       let outcome =
         Obs.Trace.with_span trace ~start_ns:walk_start "engine.recovery"
           (fun () -> run_recovery 0)
       in
       t.last_recovery <- Some outcome;
       (* an idle restart (the log ends in a checkpoint, no loser, no
          repair) redid and undid nothing, and that checkpoint already
          flushed and synced every page: a new one would only repeat it.
          Otherwise the post-recovery checkpoint is an optimization: if
          the WAL (or pager) reports persistent EIO, skip it — the log
          on disk still covers everything, the appended undo records
          stay pending for the next flush, and a WAL that keeps failing
          degrades the engine to read-only at the first commit instead
          of making the database unopenable *)
       if not (analysis.Recovery.idle && t.repairs = 0) then
         try checkpoint_now t with Fault.Io_error _ -> ()
     end
   with e ->
     (* a crash injected into recovery itself: release the descriptors so
        the caller can retry the open (the crash-matrix tests do) *)
     Wal.abandon wal;
     Pager.abandon pager;
     raise e);
  t

let crash t =
  Wal.abandon t.wal;
  Pager.abandon t.pager

(* Something a close must checkpoint: a record logged, or a page
   changed, since the last checkpoint. *)
let changed t =
  Wal.next_lsn t.wal <> t.checkpoint_end || Buffer_pool.has_dirty t.pool

let close t =
  if t.read_only then
    (* degraded: the WAL cannot be made durable, so a checkpoint or even
       a final flush would lie — abandon, exactly as a crash would *)
    crash t
  else begin
    (try if Hashtbl.length t.active = 0 && changed t then checkpoint_now t
     with Fault.Io_error site -> degrade t site);
    if t.read_only then crash t
    else begin
      Wal.close t.wal;
      Pager.close t.pager
    end
  end

(* --- transactions -------------------------------------------------------- *)

let writes_of t txn =
  match Hashtbl.find_opt t.active txn with
  | Some w -> w
  | None -> raise (No_such_transaction txn)

let begin_txn ?id t =
  check_writable t;
  let id =
    match id with
    | Some i -> i
    | None ->
        let i = t.next_txn in
        t.next_txn <- i + 1;
        i
  in
  if Hashtbl.mem t.active id then
    invalid_arg (Printf.sprintf "Engine.begin_txn: txn %d already active" id);
  t.next_txn <- max t.next_txn (id + 1);
  ignore (Wal.append t.wal (Wal.Begin id) : int);
  Hashtbl.replace t.active id (ref []);
  Obs.Registry.Counter.incr t.emetrics.m_begins;
  id

let lock_holder t item = Hashtbl.find_opt t.locks item

let read t item = with_repair t (fun () -> Heap.Items.get (dir t) item)

let write t ~txn item value =
  check_writable t;
  let writes = writes_of t txn in
  if Hashtbl.mem t.prepared txn then
    invalid_arg
      (Printf.sprintf "Engine.write: txn %d is prepared and awaiting its \
                       commit decision" txn);
  (match Hashtbl.find_opt t.locks item with
  | Some holder when holder <> txn -> raise (Locked (item, holder))
  | _ -> Hashtbl.replace t.locks item txn);
  let before = with_repair t (fun () -> Heap.Items.get (dir t) item) in
  let lsn =
    Wal.append t.wal
      (Wal.Write { txn; item; before; after = value; compensation = false })
  in
  (match with_repair t (fun () -> Heap.Items.set (dir t) ~lsn item value) with
  | (_ : bool) -> ()
  | exception Fault.Io_error site ->
      (* the steal barrier could not flush the log: durability is gone *)
      degrade t site;
      raise (Read_only (Printf.sprintf "wal unflushable at %s" site)));
  writes := (item, before) :: !writes

let release_locks t txn =
  let mine =
    Hashtbl.fold
      (fun item holder acc -> if holder = txn then item :: acc else acc)
      t.locks []
  in
  List.iter (Hashtbl.remove t.locks) mine

(* The participant side of two-phase commit: force the txn's writes and
   a Prepare record to disk, then hold everything (locks, undo info)
   until the coordinator's decision arrives — possibly only after a
   restart, via the termination protocol.  Idempotent, because the
   coordinator retries lost PREPARE messages. *)
let prepare t ~txn =
  check_writable t;
  ignore (writes_of t txn);
  if not (Hashtbl.mem t.prepared txn) then begin
    ignore (Wal.append t.wal (Wal.Prepare txn) : int);
    match Wal.flush t.wal with
    | () -> Hashtbl.replace t.prepared txn ()
    | exception Fault.Io_error site ->
        (* the vote cannot be made durable: this shard must vote no *)
        degrade t site;
        raise (Read_only (Printf.sprintf "wal unflushable at %s" site))
  end

let prepared_txns t =
  Hashtbl.fold (fun k () acc -> k :: acc) t.prepared [] |> List.sort Int.compare

let commit t ~txn =
  check_writable t;
  ignore (writes_of t txn);
  Obs.Trace.with_span t.trace
    ~args:[ ("txn", string_of_int txn) ]
    "engine.commit"
    (fun () ->
      ignore (Wal.append t.wal (Wal.Commit txn) : int);
      (* the commit point: the flush that makes the Commit record durable *)
      match Wal.flush t.wal with
      | () -> ()
      | exception Fault.Io_error site ->
          (* the Commit record stays pending and is dropped by the degraded
             close (abandon), so recovery treats the transaction as a loser:
             in-doubt in this process, aborted after restart *)
          degrade t site;
          raise (Read_only (Printf.sprintf "wal unflushable at %s" site)));
  release_locks t txn;
  Hashtbl.remove t.active txn;
  Hashtbl.remove t.prepared txn;
  Obs.Registry.Counter.incr t.emetrics.m_commits

let abort t ~txn =
  let writes = writes_of t txn in
  (* undo newest-first, logging a compensation per undone write — these
     are ordinary history for any later recovery (never re-undone).
     In degraded mode this is best-effort: the CLRs cannot be flushed,
     but restart recovery re-derives the same undo from the log. *)
  Obs.Trace.with_span t.trace
    ~args:[ ("txn", string_of_int txn) ]
    "engine.abort"
    (fun () ->
      try
        List.iter
          (fun (item, before) ->
            let current = with_repair t (fun () -> Heap.Items.get (dir t) item) in
            let lsn =
              Wal.append t.wal
                (Wal.Write
                   { txn; item; before = current; after = before; compensation = true })
            in
            ignore (with_repair t (fun () -> Heap.Items.set (dir t) ~lsn item before) : bool))
          !writes;
        ignore (Wal.append t.wal (Wal.Abort txn) : int);
        Wal.flush t.wal
      with Fault.Io_error site -> degrade t site);
  release_locks t txn;
  Hashtbl.remove t.active txn;
  Hashtbl.remove t.prepared txn;
  Obs.Registry.Counter.incr t.emetrics.m_aborts

let items t = with_repair t (fun () -> Heap.Items.all (dir t))
let item_count t = with_repair t (fun () -> Heap.Items.count (dir t))
let active_txns t = Hashtbl.fold (fun k _ acc -> k :: acc) t.active [] |> List.sort Int.compare

(* --- tables --------------------------------------------------------------- *)

(* Tables whose names start with "__" are reserved for engine-internal
   state (planner statistics, index definitions).  They live in the same
   catalog but are hidden from the public enumeration APIs so [db status]
   and [database] keep showing only user data; [save_table]/[load_table]
   still address them by exact name. *)
let reserved name =
  String.length name >= 2 && name.[0] = '_' && name.[1] = '_'

let public_catalog pool =
  List.filter (fun tb -> not (reserved tb.Heap.name)) (Heap.catalog pool)

let save_table t name rel =
  check_writable t;
  let old_catalog = List.map fst (Heap.chain_lsns t.pool ~first:(Pager.catalog_root t.pager)) in
  let root = Heap.replace_table t.pool (Heap.save_relation t.pool ~name rel) in
  try
    checkpoint_now t;
    (* the root switch, after every page the new catalog reaches is
       durable, and durable itself before the save is acknowledged *)
    Pager.set_catalog_root t.pager root;
    Pager.sync t.pager;
    Pager.release t.pager old_catalog
  with Fault.Io_error site ->
    degrade t site;
    raise (Read_only (Printf.sprintf "wal unflushable at %s" site))

let tables t = public_catalog t.pool

let table_info t =
  List.map (fun { Heap.name; schema; first; _ } -> (name, schema, first)) (tables t)

let find_table t name =
  match List.find_opt (fun tb -> tb.Heap.name = name) (Heap.catalog t.pool) with
  | Some { Heap.schema; first; _ } -> (schema, first)
  | None -> raise (Unknown_table name)

let load_table t name =
  let schema, first = find_table t name in
  Heap.load_relation t.pool ~schema ~first

let table_names t =
  List.map (fun tb -> tb.Heap.name) (public_catalog t.pool)

let database t =
  List.fold_left
    (fun db { Heap.name; schema; first; _ } ->
      Relational.Database.add db name (Heap.load_relation t.pool ~schema ~first))
    Relational.Database.empty (public_catalog t.pool)

(* --- observability ---------------------------------------------------------- *)

let free_pages t =
  Option.bind (Heap.owned_pages (Buffer_pool.create ~capacity:8 t.pager)) (fun owned ->
      Option.map List.length (Pager.unreached t.pager owned))

let pool t = t.pool
let pager t = t.pager
let wal t = t.wal
let fault t = t.fault
let metrics t = t.metrics
let trace t = t.trace
let last_recovery t = t.last_recovery
let read_only t = t.read_only
let degraded_reason t = t.degraded_reason
let repairs t = t.repairs
let last_repair t = t.last_repair
let io_retries t = Pager.retries t.pager + Wal.retries t.wal
let next_txn t = t.next_txn
