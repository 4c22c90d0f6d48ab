(* The binary write-ahead log.  A Log_file of CRC-framed records; a
   record's LSN is its byte offset.  Appends are buffered in memory and
   made durable by [flush] (group commit); an injected crash during flush
   writes a torn prefix of the pending bytes, which the scanner must — and
   does — tolerate, mirroring a real torn tail after a power cut.

   record payload (little-endian, inside Log_file's CRC frame):
     u8 kind (1 begin, 2 write, 3 commit, 4 abort, 5 checkpoint,
              6 compensation write, 7 prepare)
     begin/commit/abort/prepare: u32 txn
     write/compensation: u32 txn, u16 item length, item bytes,
                         i64 before-image, i64 after-image
     checkpoint: empty

   The record constructors deliberately mirror the in-memory recovery
   model [Transactions.Recovery.record]; [to_model]/[of_model] are the
   bridge, round-trip tested in test_storage.ml. *)

type record =
  | Begin of int
  | Write of { txn : int; item : string; before : int; after : int; compensation : bool }
  | Commit of int
  | Abort of int
  | Checkpoint
  | Prepare of int

type entry = { lsn : int; record : record }
type image = { base : int; bytes : string }

(* --- codec -------------------------------------------------------------- *)

let payload_of_record r =
  let buf = Buffer.create 32 in
  (match r with
  | Begin t ->
      Buffer.add_uint8 buf 1;
      Buffer.add_int32_le buf (Int32.of_int t)
  | Write { txn; item; before; after; compensation } ->
      Buffer.add_uint8 buf (if compensation then 6 else 2);
      Buffer.add_int32_le buf (Int32.of_int txn);
      if String.length item > 0xffff then invalid_arg "Wal: item name too long";
      Buffer.add_uint16_le buf (String.length item);
      Buffer.add_string buf item;
      Buffer.add_int64_le buf (Int64.of_int before);
      Buffer.add_int64_le buf (Int64.of_int after)
  | Commit t ->
      Buffer.add_uint8 buf 3;
      Buffer.add_int32_le buf (Int32.of_int t)
  | Abort t ->
      Buffer.add_uint8 buf 4;
      Buffer.add_int32_le buf (Int32.of_int t)
  | Checkpoint -> Buffer.add_uint8 buf 5
  | Prepare t ->
      Buffer.add_uint8 buf 7;
      Buffer.add_int32_le buf (Int32.of_int t));
  Buffer.contents buf

let frame_of_record r = Log_file.frame (payload_of_record r)

let u32 s pos = Int32.to_int (String.get_int32_le s pos) land 0xFFFFFFFF

(* Exactly the payloads the decoder below accepts, judged from the kind
   byte and, for a write, the item length: a txn-carrying kind needs its
   u32, a write its fixed fields plus the item; trailing bytes are
   allowed, unknown kinds are not. *)
let valid image off len =
  len >= 1
  &&
  match Char.code image.[off] with
  | 1 | 3 | 4 | 7 -> len >= 5
  | 2 | 6 -> len >= 7 && len >= 23 + String.get_uint16_le image (off + 5)
  | 5 -> true
  | _ -> false

type kind = [ `Begin | `Write | `Commit | `Abort | `Checkpoint | `Prepare ]

(* Header reads of a frame at [lsn] that passed [valid]. *)
let kind_at image lsn : kind =
  match Char.code image.[lsn + 8] with
  | 1 -> `Begin
  | 2 | 6 -> `Write
  | 3 -> `Commit
  | 4 -> `Abort
  | 5 -> `Checkpoint
  | _ -> `Prepare

let txn_at image lsn = if image.[lsn + 8] = '\005' then -1 else u32 image (lsn + 9)

let record_at image lsn =
  let off = lsn + 8 and txn = txn_at image lsn in
  match Char.code image.[off] with
  | 1 -> Begin txn
  | (2 | 6) as k ->
      let len = String.get_uint16_le image (off + 5) in
      let at = off + 7 + len in
      Write
        {
          txn;
          item = String.sub image (off + 7) len;
          before = Int64.to_int (String.get_int64_le image at);
          after = Int64.to_int (String.get_int64_le image (at + 8));
          compensation = k = 6;
        }
  | 3 -> Commit txn
  | 4 -> Abort txn
  | 5 -> Checkpoint
  | _ -> Prepare txn

let kind_of : record -> kind = function
  | Begin _ -> `Begin
  | Write _ -> `Write
  | Commit _ -> `Commit
  | Abort _ -> `Abort
  | Checkpoint -> `Checkpoint
  | Prepare _ -> `Prepare

let txn_of = function
  | Begin t | Commit t | Abort t | Prepare t | Write { txn = t; _ } -> t
  | Checkpoint -> -1

let walk ?(base = 0) bytes ~init ~f =
  let acc, clean =
    Log_file.fold ~valid bytes ~from:0 ~init ~f:(fun acc pos _ ->
        f acc (base + pos) (kind_at bytes pos) (txn_at bytes pos))
  in
  (acc, base + clean)

let walk_file path ~init ~f =
  let image = Support.Io.read_span path ~from:0 ~len:max_int in
  let acc, clean = walk image ~init ~f in
  (acc, clean, String.length image)

(* Decode the frames of [bytes], which start at file offset [base], from
   the one at LSN [from] to the first damaged one. *)
let decode ?(base = 0) bytes ~from =
  let entries, clean =
    Log_file.fold ~valid bytes ~from:(from - base) ~init:[]
      ~f:(fun acc pos _ -> { lsn = base + pos; record = record_at bytes pos } :: acc)
  in
  (List.rev entries, base + clean)

let scan image = decode image ~from:0
let entries_from { base; bytes } lsn = fst (decode ~base bytes ~from:lsn)

(* The frame every checkpoint is logged as. *)
let checkpoint_frame = frame_of_record Checkpoint

let checkpoint_at path lsn =
  lsn > 0
  &&
  match Support.Io.read_span path ~from:lsn ~len:(String.length checkpoint_frame) with
  | frame -> frame = checkpoint_frame
  | exception Sys_error _ -> false

(* --- read-only scanning: the offline verifier's view --------------------- *)

type resync = { resync_at : int; resync_records : entry list }

type report = {
  records : entry list;
  clean_bytes : int;
  total_bytes : int;
  resync : resync option;
}

(* After the scan stops at damage, slide forward byte by byte looking for
   a point where valid frames resume.  A torn tail (partial frame, zeros,
   nothing after) never resyncs; a frame corrupted mid-log — with intact
   appends after it — does, and that distinction is exactly what
   separates tolerated crash damage from silent data loss. *)
let find_resync image clean =
  let n = String.length image in
  let rec search pos =
    if pos + 8 > n then None
    else
      match decode image ~from:pos with
      | _, stop when stop = pos -> search (pos + 1)
      | resync_records, _ -> Some { resync_at = pos; resync_records }
  in
  search (clean + 1)

let scan_report image =
  let records, clean_bytes = scan image in
  let total_bytes = String.length image in
  let resync =
    if clean_bytes < total_bytes then find_resync image clean_bytes else None
  in
  { records; clean_bytes; total_bytes; resync }

(* --- the log file ------------------------------------------------------- *)

type metrics = {
  m_open_bytes : Obs.Registry.Counter.t;
  m_appends : Obs.Registry.Counter.t;
  m_append_bytes : Obs.Registry.Counter.t;
  m_flushes : Obs.Registry.Counter.t;
  m_flush_bytes : Obs.Registry.Counter.t;
  m_retries : Obs.Registry.Counter.t;
  m_fsync_ns : Obs.Histogram.t;
  m_flush_ns : Obs.Histogram.t;
}

let make_metrics registry =
  let counter = Obs.Registry.counter registry in
  {
    m_open_bytes =
      counter ~unit:"bytes" ~help:"log bytes the open read and walked"
        "wal.open_bytes";
    m_appends = counter ~unit:"records" ~help:"records appended" "wal.appends";
    m_append_bytes =
      counter ~unit:"bytes" ~help:"framed bytes appended" "wal.append_bytes";
    m_flushes =
      counter ~unit:"flushes" ~help:"group-commit flushes made durable"
        "wal.flushes";
    m_flush_bytes =
      counter ~unit:"bytes" ~help:"bytes made durable by flushes"
        "wal.flush_bytes";
    m_retries =
      counter ~help:"transient-EIO retries that eventually succeeded"
        "wal.io_retries";
    m_fsync_ns =
      Obs.Registry.histogram registry ~help:"fsync latency per flush"
        "wal.fsync_ns";
    m_flush_ns =
      Obs.Registry.histogram registry
        ~help:"whole-flush latency (write + fsync)" "wal.flush_ns";
  }

let () = ignore (make_metrics Obs.Registry.declared)

type t = { file : Log_file.t; metrics : metrics; trace : Obs.Trace.t }

let open_log ?fault ?(metrics = Obs.Registry.noop) ?(trace = Obs.Trace.noop)
    ?(on_frame = fun _ _ _ -> ()) ?(from = 0) path =
  let metrics = make_metrics metrics in
  let file, bytes =
    Log_file.open_file ?fault ~retries:metrics.m_retries ~valid ~from path
      ~on_frame:(fun bytes pos ->
        on_frame (from + pos) (kind_at bytes pos) (txn_at bytes pos))
  in
  Obs.Registry.Counter.add metrics.m_open_bytes
    (String.length bytes + Log_file.torn_at_open file);
  ({ file; metrics; trace }, { base = from; bytes })

let append t record =
  let frame = frame_of_record record in
  Obs.Registry.Counter.incr t.metrics.m_appends;
  Obs.Registry.Counter.add t.metrics.m_append_bytes (String.length frame);
  Log_file.append t.file frame

let next_lsn t = Log_file.next t.file
let durable_lsn t = Log_file.durable t.file

(* "wal flush" also draws the WAL's own silent faults, after the crash
   point: a bit of the flushed image flipped in flight, or its tail half
   never reaching the platter.  Either way the frame fails its CRC (or
   reads back as zeros) at the next checkpoint's read-back, which keeps
   the anchor before it, and at the next open, which truncates the log
   there; stolen pages carrying lost-suffix LSNs are then quarantined
   and rebuilt by the engine. *)
let flush t =
  let len = Log_file.next t.file - Log_file.durable t.file in
  if len > 0 then
    Obs.Trace.with_span t.trace
      ~args:[ ("bytes", string_of_int len) ]
      "wal.flush"
      (fun () ->
        Obs.Histogram.time t.metrics.m_flush_ns (fun () ->
            Log_file.flush t.file ~at:"wal flush" ~draws:[ `Flip; `Torn ]
              ~fsync_at:"wal fsync" ~fsync_ns:t.metrics.m_fsync_ns;
            Obs.Registry.Counter.incr t.metrics.m_flushes;
            Obs.Registry.Counter.add t.metrics.m_flush_bytes len))

let flush_to t lsn = if lsn >= durable_lsn t then flush t

let reads_back_clean t ~from =
  let durable = durable_lsn t in
  let bytes = Support.Io.read_span (Log_file.path t.file) ~from ~len:(durable - from) in
  snd (walk ~base:from bytes ~init:() ~f:(fun () _ _ _ -> ())) = durable

let close t =
  flush t;
  Log_file.close t.file

let abandon t = Log_file.abandon t.file

let truncated_at_open t = Log_file.torn_at_open t.file
let path t = Log_file.path t.file

let read_entries path =
  if Sys.file_exists path then fst (scan (Support.Io.read_file path)) else []

(* --- bridge to the in-memory recovery model ----------------------------- *)

let to_model records =
  List.filter_map
    (function
      | Begin t -> Some (Transactions.Recovery.Begin t)
      | Write { txn; item; before; after; _ } ->
          Some (Transactions.Recovery.Write (txn, item, before, after))
      | Commit t -> Some (Transactions.Recovery.Commit t)
      | Abort t -> Some (Transactions.Recovery.Abort t)
      (* A prepared-but-undecided txn is still a loser in the model:
         presumed abort.  The distributed model check adds synthetic
         commits for txns whose coordinator DECIDE survived. *)
      | Prepare _ -> None
      | Checkpoint -> None)
    records

let of_model = function
  | Transactions.Recovery.Begin t -> Begin t
  | Transactions.Recovery.Write (txn, item, before, after) ->
      Write { txn; item; before; after; compensation = false }
  | Transactions.Recovery.Commit t -> Commit t
  | Transactions.Recovery.Abort t -> Abort t

let record_to_string = function
  | Begin t -> Printf.sprintf "begin(%d)" t
  | Write { txn; item; before; after; compensation } ->
      Printf.sprintf "%s(%d, %s, %d -> %d)"
        (if compensation then "clr" else "write")
        txn item before after
  | Commit t -> Printf.sprintf "commit(%d)" t
  | Abort t -> Printf.sprintf "abort(%d)" t
  | Checkpoint -> "checkpoint"
  | Prepare t -> Printf.sprintf "prepare(%d)" t
