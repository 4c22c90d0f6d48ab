(* The pager: a fixed-size-page file with a header page (magic, version,
   page count, chain roots) and CRC-checked data pages.  All I/O goes
   through Unix file descriptors with explicit offsets; every write,
   read, and fsync is a fault-injection point.

   Fault discipline (see Fault):
     - an injected crash during a data-page write leaves a torn prefix
       (first half) of the page, like the WAL's torn-tail writer; the
       header page is assumed sector-atomic (a real engine dual-buffers
       it), so a crashed header write leaves the old header;
     - an injected crash at "pager fsync" tears the tail half of a
       random subset of the writes issued since the last successful
       fsync — the writes the missing fsync failed to make durable;
     - probabilistic torn writes and bit flips corrupt data pages
       silently; they are detected by CRC on the next read, recorded in
       [corrupt_pages], and repaired by the engine (quarantine + redo
       from WAL);
     - transient read/fsync EIO errors are retried with bounded
       backoff; only an error that survives every retry escapes as
       [Fault.Io_error].

   Free space is derived, not stored: at the first allocation the pager
   asks its owner walk (wired by the engine: the heap lists every page
   the header reaches) and hands out the ids nothing reaches, lowest
   first, before it grows the file.  Nothing here learns the heap's
   format, and the header carries no free list.

   header page (page 0):
     0  u32  crc32 of bytes 4..size-1
     4  8b   magic "DBMETA1\n"
     12 u16  format version (1)
     14 u32  page count (including the header page)
     18 u32  catalog root page id (0 = none)
     22 u32  items root page id (0 = none)
     26 i64  unused: older binaries wrote the log's end at each
             checkpoint here, and files they wrote still hold it
     34 i64  anchor: the LSN of the last checkpoint whose whole log
             prefix was read back clean (0 = none)
     42 u32  the next transaction id at the anchor
   Bytes this code does not know are carried through unchanged, as the
   header is written back whole; so a file opens under binaries on
   either side of a field's introduction with no version bump. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt
let magic = "DBMETA1\n"
let version = 1

type metrics = {
  m_reads : Obs.Registry.Counter.t;
  m_writes : Obs.Registry.Counter.t;
  m_crc_failures : Obs.Registry.Counter.t;
  m_retries : Obs.Registry.Counter.t;
  m_syncs : Obs.Registry.Counter.t;
  m_reused : Obs.Registry.Counter.t;
}

let make_metrics registry =
  let counter = Obs.Registry.counter registry in
  {
    m_reads = counter ~help:"data pages read (CRC-verified)" "pager.reads";
    m_writes = counter ~help:"pages written (header + data)" "pager.writes";
    m_crc_failures =
      counter ~unit:"pages" ~help:"page reads that failed their CRC"
        "pager.crc_failures";
    m_retries =
      counter ~help:"transient-EIO retries that eventually succeeded"
        "pager.io_retries";
    m_syncs = counter ~help:"successful pager fsyncs" "pager.syncs";
    m_reused =
      counter ~unit:"pages" ~help:"pages allocated from the free set, not appended"
        "pager.reused";
  }

let () = ignore (make_metrics Obs.Registry.declared)

type t = {
  path : string;
  fd : Unix.file_descr;
  fault : Fault.t;
  header : Bytes.t;
  metrics : metrics;
  mutable header_dirty : bool;  (* the anchor moved since the last write *)
  mutable unsynced : (int * int) list;  (* (offset, length) since last fsync *)
  mutable corrupt_pages : int list;  (* CRC failures seen, newest first *)
  mutable owned : unit -> int list option;  (* the owner walk; None: unknown *)
  mutable free : int list option;
      (* unreached ids, ascending; None until the first allocation *)
}

(* --- low-level exact-offset I/O --------------------------------------- *)

(* [Unix.write] loops until every byte is written *)
let pwrite fd ~off buf len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd buf 0 len : int)

let really_pread fd ~off buf len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < len do
    let n = Unix.read fd buf !got (len - !got) in
    if n = 0 then eof := true else got := !got + n
  done;
  !got

(* --- header accessors -------------------------------------------------- *)

let page_count t = Int32.to_int (Bytes.get_int32_le t.header 14)
let set_page_count t n = Bytes.set_int32_le t.header 14 (Int32.of_int n)
let catalog_root t = Int32.to_int (Bytes.get_int32_le t.header 18)
let items_root t = Int32.to_int (Bytes.get_int32_le t.header 22)

let anchor t =
  match Int64.to_int (Bytes.get_int64_le t.header 34) with
  | 0 -> None
  | lsn -> Some (lsn, Int32.to_int (Bytes.get_int32_le t.header 42) land 0xFFFFFFFF)

let write_header t =
  (* the header write is modelled as atomic (old header on a crash):
     tearing it would lose the chain roots, which no log protects *)
  Fault.io t.fault ~at:"header write" ~on_crash:(fun () -> ());
  Page.seal t.header;
  pwrite t.fd ~off:0 t.header Page.size;
  t.header_dirty <- false;
  Obs.Registry.Counter.incr t.metrics.m_writes

(* the root switch of a table replace: the caller has made every page
   the new catalog chain reaches durable, and syncs after *)
let set_catalog_root t n =
  Bytes.set_int32_le t.header 18 (Int32.of_int n);
  write_header t

let set_items_root t n =
  Bytes.set_int32_le t.header 22 (Int32.of_int n);
  write_header t

let set_anchor t a =
  if a <> anchor t then begin
    let lsn, next_txn = Option.value a ~default:(0, 0) in
    Bytes.set_int64_le t.header 34 (Int64.of_int lsn);
    Bytes.set_int32_le t.header 42 (Int32.of_int next_txn);
    t.header_dirty <- true
  end

(* --- open / create ----------------------------------------------------- *)

let make path fd fault metrics header =
  {
    path;
    fd;
    fault;
    header;
    metrics;
    header_dirty = false;
    unsynced = [];
    corrupt_pages = [];
    owned = (fun () -> None);
    free = None;
  }

let create ?(fault = Fault.create ()) ?(metrics = Obs.Registry.noop) path =
  let metrics = make_metrics metrics in
  let fd =
    Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let header = Bytes.make Page.size '\000' in
  Bytes.blit_string magic 0 header 4 (String.length magic);
  Bytes.set_uint16_le header 12 version;
  let t = make path fd fault metrics header in
  (try
     set_page_count t 1;
     write_header t
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  t

let open_file ?(fault = Fault.create ()) ?(metrics = Obs.Registry.noop) path =
  let metrics = make_metrics metrics in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  try
    let header = Bytes.make Page.size '\000' in
    let got = really_pread fd ~off:0 header Page.size in
    if got <> Page.size then corrupt "%s: truncated header page" path;
    if not (Page.check header) then corrupt "%s: header page CRC mismatch" path;
    if Bytes.sub_string header 4 (String.length magic) <> magic then
      corrupt "%s: bad magic (not a dbmeta database)" path;
    let v = Bytes.get_uint16_le header 12 in
    if v <> version then
      corrupt "%s: format version %d, expected %d" path v version;
    make path fd fault metrics header
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

(* a clean open and close writes nothing: the header goes back only when
   a checkpoint moved its anchor since it was last written *)
let close t =
  if t.header_dirty then write_header t;
  Unix.close t.fd

let abandon t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* --- pages -------------------------------------------------------------- *)

let check_id t id =
  if id <= 0 || id >= page_count t then corrupt "%s: page id %d out of range" t.path id

(* Reads and fsyncs share the fault injector's transient-retry loop. *)
let with_transient_retries t ~at f =
  Fault.with_retries t.fault ~at f ~on_retry:(fun () ->
      Obs.Registry.Counter.incr t.metrics.m_retries)

let read_into t id buf =
  if Bytes.length buf <> Page.size then invalid_arg "Pager.read_into: not a page buffer";
  check_id t id;
  let at = Printf.sprintf "page %d read" id in
  let got =
    with_transient_retries t ~at (fun () ->
        really_pread t.fd ~off:(id * Page.size) buf Page.size)
  in
  if got <> Page.size then corrupt "%s: page %d truncated" t.path id;
  if not (Page.check buf) then begin
    t.corrupt_pages <- id :: t.corrupt_pages;
    Obs.Registry.Counter.incr t.metrics.m_crc_failures;
    corrupt "%s: page %d CRC mismatch" t.path id
  end;
  Obs.Registry.Counter.incr t.metrics.m_reads

let read_page t id =
  let buf = Bytes.create Page.size in
  read_into t id buf;
  buf

(* Write a sealed page image, injecting the probabilistic disk faults:
   a torn write loses the tail half silently; a bit flip corrupts one
   bit of the on-disk image (the in-memory page stays intact).  Both
   are detected by CRC on the next read of the page. *)
let write_image t ~at ~off page =
  let image =
    match Fault.bit_flip t.fault ~at ~len:Page.size with
    | None -> page
    | Some bit ->
        let dirty = Bytes.copy page in
        let byte = bit / 8 and mask = 1 lsl (bit mod 8) in
        Bytes.set_uint8 dirty byte (Bytes.get_uint8 dirty byte lxor mask);
        dirty
  in
  if Fault.torn_write t.fault ~at then
    pwrite t.fd ~off image (Page.size / 2)
  else pwrite t.fd ~off image Page.size;
  t.unsynced <- (off, Page.size) :: t.unsynced;
  Obs.Registry.Counter.incr t.metrics.m_writes

let write_page t id page =
  check_id t id;
  let at = Printf.sprintf "page %d write" id in
  Page.seal page;
  (* a crash mid-write leaves a torn prefix of the new image *)
  Fault.io t.fault ~at ~on_crash:(fun () ->
      pwrite t.fd ~off:(id * Page.size) page (Page.size / 2));
  write_image t ~at ~off:(id * Page.size) page

let set_owner t walk = t.owned <- walk

let unreached t ids =
  let n = page_count t in
  if List.exists (fun id -> id <= 0 || id >= n) ids then None
  else begin
    let reached = Bytes.make n '\000' in
    List.iter (fun id -> Bytes.set reached id '\001') ids;
    Some (List.filter (fun id -> Bytes.get reached id = '\000') (List.init (n - 1) succ))
  end

(* The free set, derived once, at the first allocation.  A walk that
   fails or names an id outside the file leaves it empty, so allocation
   appends as it does on a file with no free page. *)
let free_set t =
  match t.free with
  | Some free -> free
  | None ->
      let free = Option.value ~default:[] (Option.bind (t.owned ()) (unreached t)) in
      t.free <- Some free;
      free

let release t ids = t.free <- Some (List.sort_uniq Int.compare (ids @ free_set t))

let allocate t ~kind =
  let id, reused =
    match free_set t with
    | id :: rest ->
        t.free <- Some rest;
        (id, true)
    | [] ->
        let id = page_count t in
        set_page_count t (id + 1);
        (id, false)
  in
  let page = Page.init ~kind in
  let at = Printf.sprintf "page %d allocate" id in
  (* order matters: the blank page is on disk before any chain can link
     to it, and an appended one before the header admits it *)
  Page.seal page;
  Fault.io t.fault ~at ~on_crash:(fun () ->
      pwrite t.fd ~off:(id * Page.size) page (Page.size / 2));
  write_image t ~at ~off:(id * Page.size) page;
  if reused then Obs.Registry.Counter.incr t.metrics.m_reused else write_header t;
  id

let sync t =
  (* a crash at the fsync loses the durability of the writes since the
     last sync: each such write keeps its head but may lose its tail
     half — the classic partially-persisted page-cache state *)
  Fault.io t.fault ~at:"pager fsync" ~on_crash:(fun () ->
      List.iter
        (fun (off, len) ->
          if off > 0 && Fault.torn_write t.fault ~at:"pager fsync" then begin
            let half = len / 2 in
            pwrite t.fd ~off:(off + half) (Bytes.make half '\000') half
          end)
        t.unsynced);
  with_transient_retries t ~at:"pager fsync" (fun () -> Unix.fsync t.fd);
  Obs.Registry.Counter.incr t.metrics.m_syncs;
  t.unsynced <- []

let fault t = t.fault
let path t = t.path
let corrupt_pages t = List.sort_uniq Int.compare t.corrupt_pages
let forget_corrupt t = t.corrupt_pages <- []
