(* Selinger-style per-table statistics: row count, page count, and a
   distinct-value count per column, collected by one scan over the table
   and persisted in the reserved catalog table "__stats" so every later
   session plans without touching the data.

   The storage layout is the simplest thing that round-trips through the
   engine's own relation machinery: one row per column,
     (tbl, col, rows, pages, dv)
   with rows/pages repeated on every row of the same table.  A table
   with no columns (the zero-ary relation) stores a single sentinel row
   with col = "". *)

module R = Relational

type column = { attr : string; distinct : int }
type table = { rows : int; pages : int; columns : column list }
type t = (string * table) list

let stats_table = "__stats"

let schema =
  R.Schema.make
    [
      ("tbl", R.Value.TString);
      ("col", R.Value.TString);
      ("rows", R.Value.TInt);
      ("pages", R.Value.TInt);
      ("dv", R.Value.TInt);
    ]

let find t name = List.assoc_opt name t

let distinct table attr =
  List.find_map
    (fun c -> if c.attr = attr then Some c.distinct else None)
    table.columns

let collect eng name =
  let schema, first = Storage.Engine.find_table eng name in
  let seen = Array.init (R.Schema.arity schema) (fun _ -> Hashtbl.create 64) in
  let rows = ref 0 in
  let pages =
    Storage.Heap.iter_relation (Storage.Engine.pool eng) ~first (fun tup ->
        incr rows;
        Array.iteri (fun i h -> Hashtbl.replace h tup.(i) ()) seen)
  in
  let columns =
    List.mapi
      (fun i attr -> { attr; distinct = Hashtbl.length seen.(i) })
      (R.Schema.attributes schema)
  in
  { rows = !rows; pages; columns }

let to_relation t =
  let rows =
    List.concat_map
      (fun (name, tb) ->
        let row col dv =
          [
            R.Value.String name;
            R.Value.String col;
            R.Value.Int tb.rows;
            R.Value.Int tb.pages;
            R.Value.Int dv;
          ]
        in
        match tb.columns with
        | [] -> [ row "" 0 ]
        | cols -> List.map (fun c -> row c.attr c.distinct) cols)
      t
  in
  R.Relation.of_list schema rows

let of_relation rel =
  let sch = R.Relation.schema rel in
  let pos a = R.Schema.index_of sch a in
  let ptbl = pos "tbl"
  and pcol = pos "col"
  and prows = pos "rows"
  and ppages = pos "pages"
  and pdv = pos "dv" in
  let as_string = function R.Value.String s -> s | v -> R.Value.to_string v in
  let as_int = function R.Value.Int i -> i | _ -> 0 in
  let tbl = Hashtbl.create 16 in
  R.Relation.iter
    (fun tup ->
      let name = as_string tup.(ptbl) in
      let existing =
        match Hashtbl.find_opt tbl name with
        | Some tb -> tb
        | None -> { rows = 0; pages = 0; columns = [] }
      in
      let col = as_string tup.(pcol) in
      let columns =
        if col = "" then existing.columns
        else existing.columns @ [ { attr = col; distinct = as_int tup.(pdv) } ]
      in
      Hashtbl.replace tbl name
        { rows = as_int tup.(prows); pages = as_int tup.(ppages); columns })
    rel;
  Hashtbl.fold (fun name tb acc -> (name, tb) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let load eng =
  match Storage.Engine.load_table eng stats_table with
  | rel -> of_relation rel
  | exception Storage.Engine.Unknown_table _ -> []

let save eng t = Storage.Engine.save_table eng stats_table (to_relation t)

let analyze eng names =
  Obs.Trace.with_span (Storage.Engine.trace eng) "plan.analyze" (fun () ->
      let fresh = List.map (fun name -> (name, collect eng name)) names in
      let kept = List.filter (fun (n, _) -> not (List.mem_assoc n fresh)) (load eng) in
      let merged =
        List.sort (fun (a, _) (b, _) -> String.compare a b) (fresh @ kept)
      in
      save eng merged;
      merged)

let row_stats t name = match find t name with Some tb -> tb.rows | None -> 100
