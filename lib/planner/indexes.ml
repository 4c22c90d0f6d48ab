(* The secondary-index catalog: which (table, column) pairs carry a
   B+tree or hash index.  Definitions persist in the reserved catalog
   table "__indexes"; the index structures themselves are in-memory
   (lib/access has no paged variant) and are rebuilt lazily, once per
   context, from the heap.  A rebuild streams the table's chain once
   (Heap.iter_relation, no relation built) and bulk-loads a B+tree
   (Btree.of_list: a sort and a bottom-up build) or inserts into a hash
   index; its cost at the CLI is documented in docs/PLANNER.md.

   A loaded catalog is also the context's view of the tables: it
   snapshots the public catalog entries once, and index builds, heap
   scans and fence reads all start from those chain roots, so a table
   replaced while the context lives is read at one version throughout.
   Fences and the data pages a fence scan decodes are cached beside the
   built structures, for the same lifetime. *)

module R = Relational

type kind = Btree | Hash
type def = { table : string; attr : string; kind : kind }

type built =
  | Built_btree of R.Tuple.t Access.Btree.t
  | Built_hash of R.Tuple.t Access.Hash_index.t

type t = {
  mutable defs : def list; (* sorted by (table, attr, kind) *)
  tables : Storage.Heap.table list; (* the catalog snapshot *)
  cache : (string * string * kind, built) Hashtbl.t;
  fences : (string, Storage.Heap.fence array option) Hashtbl.t;
  pages : (int, R.Tuple.t array) Hashtbl.t; (* decoded data pages *)
}

exception Index_error of string

let catalog_table = "__indexes"
let kind_to_string = function Btree -> "btree" | Hash -> "hash"

let kind_of_string = function
  | "btree" -> Some Btree
  | "hash" -> Some Hash
  | _ -> None

let schema =
  R.Schema.make
    [
      ("tbl", R.Value.TString);
      ("attr", R.Value.TString);
      ("kind", R.Value.TString);
    ]

let compare_def a b =
  match String.compare a.table b.table with
  | 0 -> (
      match String.compare a.attr b.attr with
      | 0 -> compare (kind_to_string a.kind) (kind_to_string b.kind)
      | c -> c)
  | c -> c

let defs t = t.defs

let on t ~table ~attr =
  List.filter (fun d -> d.table = table && d.attr = attr) t.defs

let tables t = t.tables

let table t name =
  match List.find_opt (fun tb -> tb.Storage.Heap.name = name) t.tables with
  | Some tb -> tb
  | None -> raise (R.Database.Unknown_relation name)

let to_relation defs =
  R.Relation.of_list schema
    (List.map
       (fun d ->
         [
           R.Value.String d.table;
           R.Value.String d.attr;
           R.Value.String (kind_to_string d.kind);
         ])
       defs)

let of_relation rel =
  let sch = R.Relation.schema rel in
  let pos a = R.Schema.index_of sch a in
  let ptbl = pos "tbl" and pattr = pos "attr" and pkind = pos "kind" in
  let as_string = function R.Value.String s -> s | v -> R.Value.to_string v in
  R.Relation.fold
    (fun tup acc ->
      match kind_of_string (as_string tup.(pkind)) with
      | Some kind ->
          { table = as_string tup.(ptbl); attr = as_string tup.(pattr); kind }
          :: acc
      | None -> acc)
    rel []

(* One read of the catalog yields both the definitions' chain and the
   public entries the context snapshots. *)
let load eng =
  let pool = Storage.Engine.pool eng in
  let entries = Storage.Heap.catalog pool in
  let defs =
    match List.find_opt (fun tb -> tb.Storage.Heap.name = catalog_table) entries with
    | Some { Storage.Heap.schema; first; _ } ->
        of_relation (Storage.Heap.load_relation pool ~schema ~first)
    | None -> []
  in
  {
    defs = List.sort_uniq compare_def defs;
    tables =
      List.filter (fun tb -> not (Storage.Engine.reserved tb.Storage.Heap.name)) entries;
    cache = Hashtbl.create 8;
    fences = Hashtbl.create 8;
    pages = Hashtbl.create 64;
  }

let save eng t = Storage.Engine.save_table eng catalog_table (to_relation t.defs)

let create eng t d =
  (match
     List.find_opt (fun (n, _, _) -> n = d.table) (Storage.Engine.table_info eng)
   with
  | None -> raise (Index_error (Printf.sprintf "unknown table %S" d.table))
  | Some (_, sch, _) ->
      if not (R.Schema.mem sch d.attr) then
        raise
          (Index_error
             (Printf.sprintf "table %s has no column %S" d.table d.attr)));
  if List.exists (fun e -> compare_def e d = 0) t.defs then
    raise
      (Index_error
         (Printf.sprintf "%s index on %s(%s) already exists"
            (kind_to_string d.kind) d.table d.attr));
  t.defs <- List.sort compare_def (d :: t.defs);
  save eng t

let drop eng t d =
  if not (List.exists (fun e -> compare_def e d = 0) t.defs) then
    raise
      (Index_error
         (Printf.sprintf "no %s index on %s(%s)" (kind_to_string d.kind)
            d.table d.attr));
  t.defs <- List.filter (fun e -> compare_def e d <> 0) t.defs;
  Hashtbl.remove t.cache (d.table, d.attr, d.kind);
  save eng t

let build eng t d =
  match Hashtbl.find_opt t.cache (d.table, d.attr, d.kind) with
  | Some b -> b
  | None ->
      let { Storage.Heap.schema; first; _ } = table t d.table in
      let pos = R.Schema.index_of schema d.attr in
      let scan f =
        ignore
          (Storage.Heap.iter_relation (Storage.Engine.pool eng) ~first
             (fun tup -> f tup.(pos) tup)
            : int)
      in
      let b =
        match d.kind with
        | Btree ->
            let pairs = ref [] in
            scan (fun key tup -> pairs := (key, tup) :: !pairs);
            Built_btree (Access.Btree.of_list (List.rev !pairs))
        | Hash ->
            let h = Access.Hash_index.create () in
            scan (Access.Hash_index.insert h);
            Built_hash h
      in
      Hashtbl.replace t.cache (d.table, d.attr, d.kind) b;
      b

let btree eng t ~table ~attr =
  match build eng t { table; attr; kind = Btree } with
  | Built_btree b -> b
  | Built_hash _ -> assert false

let hash eng t ~table ~attr =
  match build eng t { table; attr; kind = Hash } with
  | Built_hash h -> h
  | Built_btree _ -> assert false

let fences eng t ~table:name =
  match Hashtbl.find_opt t.fences name with
  | Some f -> f
  | None ->
      let f =
        Storage.Heap.read_fences (Storage.Engine.pool eng) (table t name)
      in
      Hashtbl.replace t.fences name f;
      f

let page eng t id =
  match Hashtbl.find_opt t.pages id with
  | Some tuples -> tuples
  | None ->
      let rows = ref [] in
      ignore
        (Storage.Heap.scan_page (Storage.Engine.pool eng) id (R.Codec.view ())
           (fun v -> rows := R.Codec.tuple v :: !rows)
          : int);
      let tuples = Array.of_list (List.rev !rows) in
      Hashtbl.replace t.pages id tuples;
      tuples
