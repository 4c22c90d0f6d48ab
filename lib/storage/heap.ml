(* Heap storage over the pager: page chains of variable-length records.

   Four uses share the machinery:
     - the item store (the transactional KV plane the WAL protects):
       records are (item, i64 value), updated in place — the value field
       is fixed-width, so an update never moves a record;
     - table chains: one chain of tuple records per relation, written in
       Tuple.compare order and so sorted on the leading column;
     - fence chains: one (leading value, page id) record per page of a
       table chain of two or more pages — a one-level sparse index;
     - the catalog: one chain of (name, schema, first-page, fences)
       records describing the tables.

   All access goes through the buffer pool, so scans and point reads are
   counted in its hit/miss statistics. *)

let kind_items = 2
let kind_table = 3
let kind_catalog = 4
let kind_fence = 5

let iter_chain pool ~first f =
  let id = ref first in
  while !id <> 0 do
    let next =
      Buffer_pool.with_page pool !id (fun page ->
          List.iter (fun (slot, r) -> f !id slot r) (Page.records page);
          Page.next page)
    in
    id := next
  done

let scan_page pool id view f =
  Buffer_pool.with_page pool id (fun page ->
      Page.iter_live page (fun ~off ~len ->
          Relational.Codec.walk view page ~off ~len;
          f view);
      Page.next page)

let chain_pages pool ~first =
  let n = ref 0 and id = ref first in
  while !id <> 0 do
    incr n;
    id := Buffer_pool.with_page pool !id Page.next
  done;
  !n

let chain_lsns pool ~first =
  let out = ref [] and id = ref first in
  while !id <> 0 do
    id :=
      Buffer_pool.with_page pool !id (fun page ->
          out := (!id, Page.lsn page) :: !out;
          Page.next page)
  done;
  List.rev !out

(* A page chain with a remembered tail, so appends are O(1) in chain
   length.  [on_first] persists the root of a chain created lazily (e.g.
   into the pager header or the catalog). *)
module Chain = struct
  type t = {
    pool : Buffer_pool.t;
    kind : int;
    mutable first : int;  (* 0 = not yet created *)
    mutable tail : int;
    on_first : int -> unit;
  }

  let make pool ~kind ~first ~on_first =
    let tail = ref first in
    (* find the real tail of an existing chain *)
    let id = ref first in
    while !id <> 0 do
      tail := !id;
      id := Buffer_pool.with_page pool !id Page.next
    done;
    { pool; kind; first; tail = !tail; on_first }

  let fresh_page c =
    let pager = Buffer_pool.pager c.pool in
    let id = Pager.allocate pager ~kind:c.kind in
    (* adopt the known-good in-memory image rather than reading back what
       allocate just wrote: the disk copy may be torn or bit-flipped under
       fault injection, and re-reading it would turn a write fault into an
       instant CRC failure — including inside the repair rebuild itself.
       Dirty-marking makes the next flush overwrite the suspect image. *)
    let page = Page.init ~kind:c.kind in
    Page.seal page;
    Buffer_pool.adopt c.pool id page;
    Buffer_pool.mark_dirty c.pool id;
    id

  let force c =
    if c.first = 0 then begin
      let id = fresh_page c in
      c.first <- id;
      c.tail <- id;
      c.on_first id
    end;
    c.first

  (* Append a record; returns (page, slot).  A full [tail] that still
     links onward (a chain being refilled from its first page) passes
     the record on down the chain; new pages are allocated only past its
     end. *)
  let rec append c record =
    ignore (force c : int);
    let inserted =
      Buffer_pool.with_page c.pool c.tail (fun page ->
          match Page.insert page record with
          | slot ->
              Buffer_pool.mark_dirty c.pool c.tail;
              Ok slot
          | exception Page.Page_full -> Error (Page.next page))
    in
    match inserted with
    | Ok slot -> (c.tail, slot)
    | Error next when next <> 0 ->
        c.tail <- next;
        append c record
    | Error _ ->
        let id = fresh_page c in
        Buffer_pool.with_page c.pool c.tail (fun page ->
            Page.set_next page id;
            Buffer_pool.mark_dirty c.pool c.tail);
        let slot =
          Buffer_pool.with_page c.pool id (fun page ->
              let s = Page.insert page record in
              Buffer_pool.mark_dirty c.pool id;
              s)
        in
        c.tail <- id;
        (id, slot)
end

(* --- the item store ----------------------------------------------------- *)

module Items = struct
  type loc = { page : int; slot : int }

  type t = {
    pool : Buffer_pool.t;
    dir : (string, loc) Hashtbl.t;  (* item -> location, built by [load] *)
    chain : Chain.t;
  }

  let encode item value =
    let buf = Buffer.create (String.length item + 10) in
    Buffer.add_uint16_le buf (String.length item);
    Buffer.add_string buf item;
    Buffer.add_int64_le buf (Int64.of_int value);
    Buffer.contents buf

  let decode r =
    let len = String.get_uint16_le r 0 in
    let item = String.sub r 2 len in
    let value = Int64.to_int (String.get_int64_le r (2 + len)) in
    (item, value)

  let load pool =
    let pager = Buffer_pool.pager pool in
    let first = Pager.items_root pager in
    let dir = Hashtbl.create 64 in
    if first <> 0 then
      iter_chain pool ~first (fun page slot r ->
          let item, _ = decode r in
          Hashtbl.replace dir item { page; slot });
    let chain =
      Chain.make pool ~kind:kind_items ~first ~on_first:(fun id ->
          Pager.set_items_root pager id)
    in
    { pool; dir; chain }

  let get t item =
    match Hashtbl.find_opt t.dir item with
    | None -> 0
    | Some { page; slot } ->
        Buffer_pool.with_page t.pool page (fun p ->
            match Page.read_slot p slot with
            | Some r -> snd (decode r)
            | None -> 0)

  (* The page-LSN test: apply the write unless the item's current page
     already carries this LSN (then the logged effect is present).  New
     items always apply. *)
  let set t ~lsn item value =
    let record = encode item value in
    match Hashtbl.find_opt t.dir item with
    | Some { page; slot } ->
        Buffer_pool.with_page t.pool page (fun p ->
            if Page.lsn p >= lsn then false
            else begin
              if not (Page.overwrite p slot record) then
                invalid_arg "Items.set: record size changed";
              Page.set_lsn p lsn;
              Buffer_pool.mark_dirty t.pool page;
              true
            end)
    | None ->
        let page, slot = Chain.append t.chain record in
        Buffer_pool.with_page t.pool page (fun p ->
            Page.set_lsn p lsn;
            Buffer_pool.mark_dirty t.pool page);
        Hashtbl.replace t.dir item { page; slot };
        true

  let all t =
    Hashtbl.fold (fun item _ acc -> item :: acc) t.dir []
    |> List.sort String.compare
    |> List.filter_map (fun item ->
           match get t item with 0 -> None | v -> Some (item, v))

  let count t = Hashtbl.length t.dir
end

(* --- relations ----------------------------------------------------------- *)

type fences = { root : int; count : int }
type fence = { key : Relational.Value.t; page : int }

type table = {
  name : string;
  schema : Relational.Schema.t;
  first : int;
  fences : fences option;
}

let encode_fence { key; page } =
  let buf = Buffer.create 16 in
  Buffer.add_int32_le buf (Int32.of_int page);
  Relational.Codec.add_value buf key;
  Buffer.contents buf

let decode_fence r =
  {
    key = Relational.Codec.read_value r (ref 4);
    page = Int32.to_int (String.get_int32_le r 0);
  }

(* The chain is written in Relation.iter order, which is Tuple.compare
   order, so every page's first tuple carries the smallest leading value
   on that page.  Appending a tuple that lands on a new page records that
   page's fence; a chain of two or more pages then gets a fence chain of
   its own.  Pages come from the pager's free set first, so neither
   chain's ids need be ascending or above the other's. *)
let save_relation pool ~name rel =
  let chain =
    Chain.make pool ~kind:kind_table ~first:0 ~on_first:(fun _ -> ())
  in
  let fences = ref [] and last = ref 0 in
  Relational.Relation.iter
    (fun tuple ->
      let page, _ =
        Chain.append chain (Relational.Codec.tuple_to_string tuple)
      in
      if page <> !last && Array.length tuple > 0 then
        fences := { key = tuple.(0); page } :: !fences;
      last := page)
    rel;
  (* an empty relation still needs a chain for the catalog to point at *)
  let first = Chain.force chain in
  let fences =
    match List.rev !fences with
    | [] | [ _ ] -> None
    | all ->
        let fc =
          Chain.make pool ~kind:kind_fence ~first:0 ~on_first:(fun _ -> ())
        in
        List.iter (fun f -> ignore (Chain.append fc (encode_fence f))) all;
        Some { root = Chain.force fc; count = List.length all }
  in
  { name; schema = Relational.Relation.schema rel; first; fences }

(* Fences are trusted only when the fence chain is exactly what the
   catalog entry promises.  A table replace publishes its catalog entry
   only after its data and fence pages are durable, so under the crash
   model a fence chain is always whole; a torn write or a bit flip the
   disk did silently can still leave a fence page unreadable or blank.
   Such fences are refused (None), and the caller walks the chain
   instead. *)
let whole_fences tb fences =
  match tb.fences with
  | Some { count; _ } ->
      count > 0 && Array.length fences = count && fences.(0).page = tb.first
  | None -> false

let read_fences pool tb =
  match tb.fences with
  | None -> None
  | Some { root; _ } -> (
      let out = ref [] in
      match
        iter_chain pool ~first:root (fun _ _ r -> out := decode_fence r :: !out)
      with
      | exception (Pager.Corrupt _ | Relational.Codec.Corrupt _) -> None
      | () ->
          let fences = Array.of_list (List.rev !out) in
          if whole_fences tb fences then Some fences else None)

let iter_relation pool ~first f =
  let view = Relational.Codec.view () in
  let decode v = f (Relational.Codec.tuple v) in
  let rec walk id pages =
    if id = 0 then pages else walk (scan_page pool id view decode) (pages + 1)
  in
  walk first 0

let load_relation pool ~schema ~first =
  let tuples = ref [] in
  ignore (iter_relation pool ~first (fun tup -> tuples := tup :: !tuples) : int);
  Relational.Relation.of_tuples schema (List.rev !tuples)

(* --- the catalog ---------------------------------------------------------- *)

(* An unfenced entry keeps the original encoding, so files written before
   fences existed decode unchanged (as unfenced) and an unfenced entry is
   byte-identical to theirs; a fenced one appends the fence root and the
   fence count. *)
let encode_table t =
  let buf = Buffer.create 64 in
  Buffer.add_uint16_le buf (String.length t.name);
  Buffer.add_string buf t.name;
  Relational.Codec.add_schema buf t.schema;
  Buffer.add_int32_le buf (Int32.of_int t.first);
  (match t.fences with
  | None -> ()
  | Some { root; count } ->
      Buffer.add_int32_le buf (Int32.of_int root);
      Buffer.add_int32_le buf (Int32.of_int count));
  Buffer.contents buf

let decode_table r =
  let pos = ref 0 in
  let len = String.get_uint16_le r !pos in
  pos := !pos + 2;
  let name = String.sub r !pos len in
  pos := !pos + len;
  let schema = Relational.Codec.read_schema r pos in
  let first = Int32.to_int (String.get_int32_le r !pos) in
  let fences =
    if String.length r >= !pos + 12 then
      Some
        {
          root = Int32.to_int (String.get_int32_le r (!pos + 4));
          count = Int32.to_int (String.get_int32_le r (!pos + 8));
        }
    else None
  in
  { name; schema; first; fences }

let catalog pool =
  let first = Pager.catalog_root (Buffer_pool.pager pool) in
  let out = ref [] in
  if first <> 0 then
    iter_chain pool ~first (fun _ _ r -> out := decode_table r :: !out);
  List.rev !out

(* The whole catalog, with [table] in place of its namesake (or last),
   goes into a fresh chain: nothing the header reaches is written, and
   the engine publishes the returned root once the pages are durable. *)
let replace_table pool table =
  let existing = catalog pool in
  let tables =
    if List.exists (fun t -> t.name = table.name) existing then
      List.map (fun t -> if t.name = table.name then table else t) existing
    else existing @ [ table ]
  in
  let chain =
    Chain.make pool ~kind:kind_catalog ~first:0 ~on_first:(fun _ -> ())
  in
  List.iter (fun t -> ignore (Chain.append chain (encode_table t))) tables;
  Chain.force chain

(* --- ownership --------------------------------------------------------------- *)

(* Every page the header reaches, each once: the item chain, the catalog
   chain, and per entry its fence chain and data pages.  Whole fences
   name every data page, so a fenced table's data chain is not read. *)
let owned_pages pool =
  let exception Revisited in
  let pager = Buffer_pool.pager pool in
  let seen = Hashtbl.create 64 in
  let own id =
    if Hashtbl.mem seen id then raise Revisited;
    Hashtbl.replace seen id ()
  in
  let rec walk id on_page =
    if id <> 0 then begin
      own id;
      walk (Buffer_pool.with_page pool id (fun page -> on_page page; Page.next page)) on_page
    end
  in
  let table tb =
    let fences = ref [] in
    Option.iter
      (fun { root; _ } ->
        walk root (fun page ->
            List.iter (fun (_, r) -> fences := decode_fence r :: !fences) (Page.records page)))
      tb.fences;
    let fences = Array.of_list (List.rev !fences) in
    if whole_fences tb fences then Array.iter (fun f -> own f.page) fences
    else walk tb.first ignore
  in
  match
    walk (Pager.items_root pager) ignore;
    walk (Pager.catalog_root pager) ignore;
    List.iter table (catalog pool)
  with
  | () -> Some (Hashtbl.fold (fun id () acc -> id :: acc) seen [])
  | exception (Revisited | Pager.Corrupt _ | Relational.Codec.Corrupt _) -> None
