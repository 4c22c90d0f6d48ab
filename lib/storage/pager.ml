(* The pager: a fixed-size-page file with a header page (magic, version,
   page count, chain roots) and CRC-checked data pages.  Its file is a
   [Disk.t]; this module keeps the format and names the fault sites.

   Fault discipline (the sites' draws are Disk's, see Fault):
     - a data-page write ("page N write", "page N allocate") draws a
       crash, which leaves a torn prefix (first half) of the page, then
       a bit flip and a torn write, which corrupt the page silently
       until the CRC catches it on the next read; the engine repairs an
       item page (quarantine + redo from WAL);
     - the header write draws only a crash and is sector-atomic (a real
       engine dual-buffers it): a crashed header write leaves the old
       header, and a crashed fsync never tears it;
     - "pager fsync" draws a crash first, which tears the tail half of
       the page writes since the last fsync that the missing fsync
       failed to make durable, then transient EIO, retried with a
       bounded budget before it escapes as [Fault.Io_error];
     - a page read draws transient EIO the same way.  The header read
       at open is not a site.

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
  file : Disk.t;
  header : Bytes.t;
  metrics : metrics;
  mutable header_dirty : bool;  (* the anchor moved since the last write *)
  mutable corrupt_pages : int list;  (* CRC failures seen, newest first *)
  mutable owned : unit -> int list option;  (* the owner walk; None: unknown *)
  mutable free : int list option;
      (* unreached ids, ascending; None until the first allocation *)
}

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
  (* atomic (old header on a crash): tearing it would lose the chain
     roots, which no log protects *)
  Page.seal t.header;
  Disk.write t.file ~at:"header write" ~atomic:true ~off:0 t.header;
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

let make file metrics header =
  {
    file;
    header;
    metrics;
    header_dirty = false;
    corrupt_pages = [];
    owned = (fun () -> None);
    free = None;
  }

let create ?fault ?(metrics = Obs.Registry.noop) path =
  let metrics = make_metrics metrics in
  let file = Disk.create ?fault ~retries:metrics.m_retries path in
  let header = Bytes.make Page.size '\000' in
  Bytes.blit_string magic 0 header 4 (String.length magic);
  Bytes.set_uint16_le header 12 version;
  let t = make file metrics header in
  (try
     set_page_count t 1;
     write_header t
   with e ->
     Disk.abandon file;
     raise e);
  t

let open_file ?fault ?(metrics = Obs.Registry.noop) path =
  let metrics = make_metrics metrics in
  let file = Disk.open_file ?fault ~retries:metrics.m_retries path in
  try
    let header = Bytes.make Page.size '\000' in
    if Disk.read file ~off:0 header <> Page.size then
      corrupt "%s: truncated header page" path;
    if not (Page.check header) then corrupt "%s: header page CRC mismatch" path;
    if Bytes.sub_string header 4 (String.length magic) <> magic then
      corrupt "%s: bad magic (not a dbmeta database)" path;
    let v = Bytes.get_uint16_le header 12 in
    if v <> version then
      corrupt "%s: format version %d, expected %d" path v version;
    make file metrics header
  with e ->
    Disk.abandon file;
    raise e

(* a clean open and close writes nothing: the header goes back only when
   a checkpoint moved its anchor since it was last written *)
let close t =
  if t.header_dirty then write_header t;
  Disk.close t.file

let abandon t = Disk.abandon t.file

(* --- pages -------------------------------------------------------------- *)

let path t = Disk.path t.file

let check_id t id =
  if id <= 0 || id >= page_count t then corrupt "%s: page id %d out of range" (path t) id

let read_into t id buf =
  if Bytes.length buf <> Page.size then invalid_arg "Pager.read_into: not a page buffer";
  check_id t id;
  let at = Printf.sprintf "page %d read" id in
  if Disk.read t.file ~at ~off:(id * Page.size) buf <> Page.size then
    corrupt "%s: page %d truncated" (path t) id;
  if not (Page.check buf) then begin
    t.corrupt_pages <- id :: t.corrupt_pages;
    Obs.Registry.Counter.incr t.metrics.m_crc_failures;
    corrupt "%s: page %d CRC mismatch" (path t) id
  end;
  Obs.Registry.Counter.incr t.metrics.m_reads

let read_page t id =
  let buf = Bytes.create Page.size in
  read_into t id buf;
  buf

(* Seal and write a data page: a crash tears it, and a flip or a torn
   write corrupts it silently (the in-memory page stays intact) until
   its CRC fails on the next read. *)
let write_sealed t ~at id page =
  Page.seal page;
  Disk.write t.file ~at ~draws:[ `Flip; `Torn ] ~off:(id * Page.size) page;
  Obs.Registry.Counter.incr t.metrics.m_writes

let write_page t id page =
  check_id t id;
  write_sealed t ~at:(Printf.sprintf "page %d write" id) id page

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
  (* order matters: the blank page is on disk before any chain can link
     to it, and an appended one before the header admits it *)
  write_sealed t ~at:(Printf.sprintf "page %d allocate" id) id (Page.init ~kind);
  if reused then Obs.Registry.Counter.incr t.metrics.m_reused else write_header t;
  id

(* a crash here leaves the partially-persisted page-cache state: each
   page written since the last sync keeps its head but may lose its
   tail half *)
let sync t =
  Disk.fsync t.file ~at:"pager fsync" ~draws:[ `Crash; `Eio ] ();
  Obs.Registry.Counter.incr t.metrics.m_syncs

let fault t = Disk.fault t.file
let corrupt_pages t = List.sort_uniq Int.compare t.corrupt_pages
let forget_corrupt t = t.corrupt_pages <- []
