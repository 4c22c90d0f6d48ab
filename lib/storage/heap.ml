(* Heap storage over the pager: page chains of variable-length records.

   Four uses share the machinery:
     - the item store (the transactional KV plane the WAL protects):
       records are (item, i64 value), updated in place — the value field
       is fixed-width, so an update never moves a record;
     - table chains: one chain of tuple records per relation, written in
       Tuple.compare order and so sorted on the leading column;
     - fence chains: one (leading value, page id) record per page of a
       table chain of two or more pages — a one-level sparse index;
     - the catalog: one chain of (name, schema, first-page, fences,
       statistics) records describing the tables.

   All access goes through the buffer pool, so scans and point reads are
   counted in its hit/miss statistics. *)

let kind_items = 2
let kind_table = 3
let kind_catalog = 4
let kind_fence = 5

(* The one walk down [Page.next]: [f] sees each page id and page while
   it is pinned. *)
let fold_chain pool ~first ~init f =
  let rec walk acc id =
    if id = 0 then acc
    else
      let acc, next =
        Buffer_pool.with_page pool id (fun page -> (f acc id page, Page.next page))
      in
      walk acc next
  in
  walk init first

(* A page's live records, decoded, onto [acc] (last slot first), and a
   whole chain's in chain and slot order. *)
let push_records decode acc page =
  List.fold_left (fun acc (_, r) -> decode r :: acc) acc (Page.records page)

let chain_records pool ~first decode =
  List.rev (fold_chain pool ~first ~init:[] (fun acc _ page -> push_records decode acc page))

let scan_page pool id view f =
  Buffer_pool.with_page pool id (fun page ->
      Page.iter_live page (fun _ ~off ~len ->
          Relational.Codec.walk view page ~off ~len;
          f view);
      Page.next page)

let chain_pages pool ~first = fold_chain pool ~first ~init:0 (fun n _ _ -> n + 1)

let chain_lsns pool ~first =
  List.rev (fold_chain pool ~first ~init:[] (fun acc id page -> (id, Page.lsn page) :: acc))

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

  (* [tail] is the chain's last page: 0 with [first] for a new chain, and
     for an existing one whatever walk the caller already made found. *)
  let make pool ~kind ~first ~tail ~on_first = { pool; kind; first; tail; on_first }

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

  (* The directory, read from the chain's pages in place.  The walk that
     finds the chain's tail also counts its slots, which sizes the
     table: a Hashtbl grows only past two entries a bucket, so half the
     slot count holds every item without a resize.  Then each live
     record's key is copied out once, in chain and slot order, so an
     item's last record wins.  A record too short for its key and value
     raises, as decoding it would. *)
  let load pool =
    let pager = Buffer_pool.pager pool in
    let first = Pager.items_root pager in
    let pages, slots =
      fold_chain pool ~first ~init:([], 0) (fun (pages, slots) id p ->
          (id :: pages, slots + Page.nslots p))
    in
    let dir = Hashtbl.create (max 64 (slots / 2)) in
    List.iter
      (fun page ->
        Buffer_pool.with_page pool page (fun p ->
            Page.iter_live p (fun slot ~off ~len ->
                let klen = if len < 2 then len else Bytes.get_uint16_le p off in
                if 2 + klen + 8 > len then invalid_arg "Items.load: malformed item record";
                Hashtbl.replace dir (Bytes.sub_string p (off + 2) klen) { page; slot })))
      (List.rev pages);
    let tail = match pages with last :: _ -> last | [] -> first in
    let chain =
      Chain.make pool ~kind:kind_items ~first ~tail ~on_first:(fun id ->
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
type stats = { rows : int; pages : int; distinct : int list }

type table = {
  name : string;
  schema : Relational.Schema.t;
  first : int;
  fences : fences option;
  stats : stats option;
}

(* One column's distinct values: an open-addressed set in flat arrays,
   made for the expected row count and grown only past it, so an insert
   allocates nothing.  Values are equal as [Value.equal] has them (every
   nan is one value, and -0.0 is 0.0), and are hashed by tag so that
   equal values hash alike. *)
module Distinct = struct
  type t = {
    mutable used : Bytes.t;
    mutable keys : Relational.Value.t array;
    mutable count : int;
  }

  (* at most two slots in three taken *)
  let make rows =
    let size = ref 16 in
    while 2 * !size < 3 * rows do
      size := 2 * !size
    done;
    { used = Bytes.make !size '\000'; keys = Array.make !size (Relational.Value.Int 0); count = 0 }

  let slot t v =
    let h =
      match v with
      | Relational.Value.Int n -> n
      | String s -> Hashtbl.hash s
      | Float f -> Hashtbl.hash f
      | Bool b -> Bool.to_int b
    in
    let h = h * 0x9E3779B97F4A7C1 in
    (h lxor (h lsr 32)) land (Bytes.length t.used - 1)

  (* [Value.equal], with two ints or two strings compared directly *)
  let same a b =
    match (a, b) with
    | Relational.Value.Int x, Relational.Value.Int y -> x = y
    | String x, String y -> String.equal x y
    | a, b -> Relational.Value.equal a b

  let rec add t v =
    if 3 * (t.count + 1) > 2 * Bytes.length t.used then begin
      let bigger = make (Bytes.length t.used) in
      Bytes.iteri (fun i u -> if u <> '\000' then add bigger t.keys.(i)) t.used;
      t.used <- bigger.used;
      t.keys <- bigger.keys
    end;
    let mask = Bytes.length t.used - 1 in
    let rec probe i =
      if Bytes.get t.used i = '\000' then begin
        Bytes.set t.used i '\001';
        t.keys.(i) <- v;
        t.count <- t.count + 1
      end
      else if not (same t.keys.(i) v) then probe ((i + 1) land mask)
    in
    probe (slot t v)
end

(* The one count of a table's statistics, fed its tuples in chain order
   by [save_relation] as it writes them and by [count_relation] as it
   reads an older entry's chain.  The chain is in Tuple.compare order,
   so equal leading values are adjacent and the leading column's count
   is its number of runs; every other column fills a [Distinct] set. *)
module Tally = struct
  type t = {
    mutable rows : int;
    mutable lead : Relational.Value.t;  (* the current run's value *)
    mutable runs : int;
    rest : Distinct.t array;  (* columns 1 .. arity-1 *)
    arity : int;
  }

  let create ~arity ~rows =
    {
      rows = 0;
      lead = Relational.Value.Int 0;
      runs = 0;
      rest = Array.init (max 0 (arity - 1)) (fun _ -> Distinct.make rows);
      arity;
    }

  let add t tuple =
    t.rows <- t.rows + 1;
    if t.arity > 0 then begin
      let v = tuple.(0) in
      if t.rows = 1 || not (Distinct.same t.lead v) then begin
        t.runs <- t.runs + 1;
        t.lead <- v
      end;
      for i = 1 to t.arity - 1 do
        Distinct.add t.rest.(i - 1) tuple.(i)
      done
    end

  let stats t ~pages : stats =
    let rest = Array.to_list (Array.map (fun d -> d.Distinct.count) t.rest) in
    { rows = t.rows; pages; distinct = (if t.arity = 0 then [] else t.runs :: rest) }
end

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
  let schema = Relational.Relation.schema rel in
  let chain =
    Chain.make pool ~kind:kind_table ~first:0 ~tail:0 ~on_first:(fun _ -> ())
  in
  let tally =
    Tally.create ~arity:(Relational.Schema.arity schema)
      ~rows:(Relational.Relation.cardinality rel)
  in
  let fences = ref [] and last = ref 0 and pages = ref 0 in
  Relational.Relation.iter
    (fun tuple ->
      let page, _ =
        Chain.append chain (Relational.Codec.tuple_to_string tuple)
      in
      Tally.add tally tuple;
      if page <> !last then begin
        incr pages;
        if Array.length tuple > 0 then
          fences := { key = tuple.(0); page } :: !fences
      end;
      last := page)
    rel;
  (* an empty relation still needs a chain for the catalog to point at *)
  let first = Chain.force chain in
  let fences =
    match List.rev !fences with
    | [] | [ _ ] -> None
    | all ->
        let fc =
          Chain.make pool ~kind:kind_fence ~first:0 ~tail:0 ~on_first:(fun _ -> ())
        in
        List.iter (fun f -> ignore (Chain.append fc (encode_fence f))) all;
        Some { root = Chain.force fc; count = List.length all }
  in
  let stats = Tally.stats tally ~pages:(max 1 !pages) in
  { name; schema; first; fences; stats = Some stats }

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
      match chain_records pool ~first:root decode_fence with
      | exception (Pager.Corrupt _ | Relational.Codec.Corrupt _) -> None
      | fences ->
          let fences = Array.of_list fences in
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

let count_relation pool tb =
  let tally = Tally.create ~arity:(Relational.Schema.arity tb.schema) ~rows:64 in
  let pages = iter_relation pool ~first:tb.first (Tally.add tally) in
  Tally.stats tally ~pages

(* --- the catalog ---------------------------------------------------------- *)

(* Three encodings decode.  The original is name, schema and first
   page; a fenced entry appended its fence root and count.  An entry
   with statistics appends, after the first page, the fence root and
   count (0 and 0 when unfenced), its rows, its data pages and one
   distinct count per column.  Every entry [save_relation] writes has
   statistics; one an older binary wrote decodes with none, and is
   written back in its own encoding when the catalog is rewritten. *)
let encode_table t =
  let buf = Buffer.create 64 in
  let add n = Buffer.add_int32_le buf (Int32.of_int n) in
  Buffer.add_uint16_le buf (String.length t.name);
  Buffer.add_string buf t.name;
  Relational.Codec.add_schema buf t.schema;
  add t.first;
  (match (t.fences, t.stats) with
  | None, None -> ()
  | Some { root; count }, None -> add root; add count
  | fences, Some { rows; pages; distinct } ->
      let root, count = match fences with Some f -> (f.root, f.count) | None -> (0, 0) in
      List.iter add (root :: count :: rows :: pages :: distinct));
  Buffer.contents buf

let decode_table r =
  let pos = ref 0 in
  let len = String.get_uint16_le r !pos in
  pos := !pos + 2;
  let name = String.sub r !pos len in
  pos := !pos + len;
  let schema = Relational.Codec.read_schema r pos in
  let int i = Int32.to_int (String.get_int32_le r (!pos + (4 * i))) in
  let fences () = if int 1 = 0 then None else Some { root = int 1; count = int 2 } in
  let arity = Relational.Schema.arity schema in
  let fences, stats =
    match String.length r - !pos with
    | 4 -> (None, None)
    | 12 -> (fences (), None)
    | n when n = 4 * (5 + arity) ->
        (fences (), Some { rows = int 3; pages = int 4; distinct = List.init arity (fun i -> int (5 + i)) })
    | _ -> raise (Relational.Codec.Corrupt (Printf.sprintf "catalog entry %S: bad length" name))
  in
  { name; schema; first = int 0; fences; stats }

let catalog pool =
  chain_records pool ~first:(Pager.catalog_root (Buffer_pool.pager pool)) decode_table

(* The whole catalog, with [tables] in place of their namesakes (the
   new ones last), goes into a fresh chain: nothing the header reaches
   is written, and the engine publishes the returned root once the
   pages are durable. *)
let replace_tables pool tables =
  let existing = catalog pool in
  let named name = List.find_opt (fun t -> t.name = name) tables in
  let entries =
    List.map (fun t -> Option.value (named t.name) ~default:t) existing
    @ List.filter (fun t -> not (List.exists (fun e -> e.name = t.name) existing)) tables
  in
  let chain =
    Chain.make pool ~kind:kind_catalog ~first:0 ~tail:0 ~on_first:(fun _ -> ())
  in
  List.iter (fun t -> ignore (Chain.append chain (encode_table t))) entries;
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
  (* own every page of a chain, folding [on_page] over them *)
  let walk first ~init on_page =
    fold_chain pool ~first ~init (fun acc id page ->
        own id;
        on_page acc page)
  in
  let own_chain first = walk first ~init:() (fun () _ -> ()) in
  let table tb =
    let fences =
      match tb.fences with
      | Some { root; _ } -> List.rev (walk root ~init:[] (push_records decode_fence))
      | None -> []
    in
    let fences = Array.of_list fences in
    if whole_fences tb fences then Array.iter (fun f -> own f.page) fences
    else own_chain tb.first
  in
  match
    own_chain (Pager.items_root pager);
    own_chain (Pager.catalog_root pager);
    List.iter table (catalog pool)
  with
  | () -> Some (Hashtbl.fold (fun id () acc -> id :: acc) seen [])
  | exception (Revisited | Pager.Corrupt _ | Relational.Codec.Corrupt _) -> None
