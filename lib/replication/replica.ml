(* A replica is a byte-accurate WAL tail and nothing else.  The file
   layout is exactly a single-node database's (db at [path], log at
   [path.wal]) so that promotion is just Storage.Engine.open_db, whose
   restart recovery is the replica's redo; what this module adds is the
   streaming side: append shipped chunks at their primary offsets,
   refuse stale epochs, and route a chunk that carries a Checkpoint to
   the snapshot path.  Every question it asks of log bytes (their clean
   length, a Checkpoint among them, how many Commits they hold) is
   answered by one header walk; no record is decoded. *)

module Wal = Storage.Wal
module Fault = Storage.Fault
module Engine = Storage.Engine
module Log_file = Storage.Log_file

(* The pair (repl.apply_commits, repl.stale_rejects). *)
let make_metrics registry =
  let counter = Obs.Registry.counter registry in
  ( counter ~unit:"txns"
      ~help:
        "commit records a replica's log took in (attach, chunks, \
         snapshots)"
      "repl.apply_commits",
    counter ~unit:"msgs" ~help:"stale-epoch chunks refused (fencing)"
      "repl.stale_rejects" )

let () = ignore (make_metrics Obs.Registry.declared)

type t = {
  path : string;
  wal_file : string;
  node_id : int;
  fault : Fault.t;
  mutable log : Log_file.t option;  (* the log copy, opened once it exists *)
  mutable epoch : int;
  mutable snapshot_lsn : int;
  mutable wal_len : int;  (* durable clean bytes — the replica's LSN *)
  m_commits : Obs.Registry.Counter.t;
  m_stale : Obs.Registry.Counter.t;
}

type receipt = Acked of int | Stale_epoch | Gap of int | Snapshot_needed

(* One header walk of log bytes: the Commit frames they hold, whether
   one of them is a Checkpoint, and their clean length. *)
let survey image =
  let (commits, checkpoint), clean =
    Wal.walk image ~init:(0, false) ~f:(fun (commits, checkpoint) _ kind _ ->
        match kind with
        | `Commit -> (commits + 1, checkpoint)
        | `Checkpoint -> (commits, true)
        | `Begin | `Write | `Abort | `Prepare -> (commits, checkpoint))
  in
  (commits, checkpoint, clean)

let attach ?(metrics = Obs.Registry.noop) ~fault ~node_id ~epoch path =
  let wal_file = Engine.wal_path path in
  let m_commits, m_stale = make_metrics metrics in
  let t =
    {
      path;
      wal_file;
      node_id;
      fault;
      log = None;
      epoch;
      snapshot_lsn = 0;
      wal_len = 0;
      m_commits;
      m_stale;
    }
  in
  (match Repl_meta.load_node path with
  | Some (e, snap) ->
      t.epoch <- e;
      t.snapshot_lsn <- snap
  | None -> Repl_meta.save_node ~fault path ~epoch ~snapshot_lsn:0);
  (* a node that never received a byte keeps no log file until its
     first chunk or snapshot arrives *)
  if Sys.file_exists wal_file then begin
    (* the open cuts a torn tail a crashed append left *)
    let log, image = Log_file.open_file ~fault ~valid:Wal.valid wal_file in
    let commits, _, clean = survey image in
    t.log <- Some log;
    t.wal_len <- clean;
    Obs.Registry.Counter.add t.m_commits commits
  end;
  t

let log t =
  match t.log with
  | Some log -> log
  | None ->
      let log, _ =
        Log_file.open_file ~fault:t.fault ~valid:Wal.valid t.wal_file
      in
      t.log <- Some log;
      log

(* Append [chunk] at byte offset [t.wal_len], fault-injected: an
   injected crash writes only half the chunk (a torn shipment, healed
   by the torn-tail cut of the next attach).  A chunk whose tail did
   not scan clean was appended whole but counted only to its clean
   end, so the copy is first cut back to the bytes the replica holds. *)
let append_bytes t chunk =
  let log = log t in
  if Log_file.durable log <> t.wal_len then Log_file.cut log t.wal_len;
  ignore (Log_file.append log chunk : int);
  Log_file.flush log ~at:(Printf.sprintf "replica %d wal append" t.node_id)

let adopt_epoch t epoch =
  if epoch > t.epoch then begin
    t.epoch <- epoch;
    Repl_meta.save_node ~fault:t.fault t.path ~epoch
      ~snapshot_lsn:t.snapshot_lsn
  end

let receive t ~epoch ~start ~chunk =
  if epoch < t.epoch then begin
    Obs.Registry.Counter.incr t.m_stale;
    Stale_epoch
  end
  else begin
    adopt_epoch t epoch;
    if start > t.wal_len then Gap t.wal_len
    else begin
      let skip = t.wal_len - start in
      if skip >= String.length chunk then Acked t.wal_len
      else begin
        let fresh = String.sub chunk skip (String.length chunk - skip) in
        let commits, checkpoint, clean = survey fresh in
        if checkpoint then Snapshot_needed
        else begin
          append_bytes t fresh;
          Obs.Registry.Counter.add t.m_commits commits;
          t.wal_len <- t.wal_len + clean;
          Acked t.wal_len
        end
      end
    end
  end

(* The snapshot install is modeled atomic: its one fault site is the
   page image's replace, before any mutation, and after it the log
   prefix and the epoch stamp land with no site between them.  A real
   system would order page ship / log ship / stamp publish behind a
   recovery marker; collapsing that ladder keeps the crash model
   one-budget without opening a window where the log claims pages the
   node never received (the RP004 gap). *)
let install_snapshot t ~epoch ~db_image ~wal_image ~snapshot_lsn =
  Storage.Disk.replace ~fault:t.fault
    ~at:(Printf.sprintf "replica %d snapshot" t.node_id)
    t.path db_image;
  let log = log t in
  Log_file.cut log 0;
  ignore (Log_file.append log wal_image : int);
  Log_file.flush log;
  t.epoch <- max t.epoch epoch;
  t.snapshot_lsn <- snapshot_lsn;
  Repl_meta.save_node ~fault:t.fault t.path ~epoch:t.epoch ~snapshot_lsn;
  let commits, _, clean = survey wal_image in
  t.wal_len <- clean;
  Obs.Registry.Counter.add t.m_commits commits

let durable_lsn t = t.wal_len
let epoch t = t.epoch
let snapshot_lsn t = t.snapshot_lsn
let node_id t = t.node_id
let path t = t.path

let close t =
  Option.iter Log_file.close t.log;
  t.log <- None

let abandon t =
  Option.iter Log_file.abandon t.log;
  t.log <- None
