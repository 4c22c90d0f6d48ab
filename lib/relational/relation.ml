module Tuple_set = Set.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

type t = { schema : Schema.t; tuples : Tuple_set.t }

exception Arity_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Arity_error s)) fmt

let create schema = { schema; tuples = Tuple_set.empty }

(* The checker for [schema]'s tuples, its column types read once. *)
let tuple_checker schema =
  let types = Array.of_list (Schema.types schema) in
  fun tup ->
    if Array.length tup <> Array.length types then
      err "tuple %s has arity %d, schema %s has arity %d" (Tuple.to_string tup)
        (Array.length tup)
        (Schema.to_string schema)
        (Array.length types);
    for i = 0 to Array.length types - 1 do
      if Value.type_of tup.(i) <> types.(i) then
        err "tuple %s: component %d has type %s, schema %s expects %s"
          (Tuple.to_string tup) i
          (Value.ty_to_string (Value.type_of tup.(i)))
          (Schema.to_string schema) (Value.ty_to_string types.(i))
    done

let of_tuples schema tups =
  List.iter (tuple_checker schema) tups;
  { schema; tuples = Tuple_set.of_list tups }

let of_list schema rows = of_tuples schema (List.map Tuple.make rows)

let schema t = t.schema
let tuples t = t.tuples
let to_list t = Tuple_set.elements t.tuples
let cardinality t = Tuple_set.cardinal t.tuples
let is_empty t = Tuple_set.is_empty t.tuples
let mem t tup = Tuple_set.mem tup t.tuples

let add t tup =
  tuple_checker t.schema tup;
  { t with tuples = Tuple_set.add tup t.tuples }

let iter f t = Tuple_set.iter f t.tuples
let fold f t init = Tuple_set.fold f t.tuples init
let filter p t = { t with tuples = Tuple_set.filter p t.tuples }

(* Realign [other]'s tuples to [target]'s column order. *)
let aligned target other =
  if Schema.equal target.schema other.schema then other.tuples
  else begin
    let positions = Schema.positions_of target.schema other.schema in
    Tuple_set.map (fun tup -> Tuple.project tup positions) other.tuples
  end

let union a b = { a with tuples = Tuple_set.union a.tuples (aligned a b) }
let inter a b = { a with tuples = Tuple_set.inter a.tuples (aligned a b) }
let diff a b = { a with tuples = Tuple_set.diff a.tuples (aligned a b) }

let equal a b =
  Schema.union_compatible a.schema b.schema
  && Tuple_set.equal a.tuples (aligned a b)

let subset a b =
  Schema.union_compatible a.schema b.schema
  && Tuple_set.subset a.tuples (aligned a b)

(* The identity projection, the usual one onto a query's own columns,
   is the relation itself. *)
let project t attrs =
  if List.equal String.equal attrs (Schema.attributes t.schema) then t
  else begin
    let sub = Schema.project t.schema attrs in
    let positions = Array.of_list (List.map (Schema.index_of t.schema) attrs) in
    {
      schema = sub;
      tuples = Tuple_set.map (fun tup -> Tuple.project tup positions) t.tuples;
    }
  end

let select p t = filter p t

let rename t mapping =
  { t with schema = Schema.rename t.schema mapping }

let product a b =
  let schema = Schema.product a.schema b.schema in
  let tuples =
    Tuple_set.fold
      (fun ta acc ->
        Tuple_set.fold
          (fun tb acc -> Tuple_set.add (Tuple.concat ta tb) acc)
          b.tuples acc)
      a.tuples Tuple_set.empty
  in
  { schema; tuples }

(* Hash table keyed by the projection of tuples onto the shared columns. *)
let build_hash positions rel =
  let table = Tuple.Table.create (max 16 (cardinality rel)) in
  iter
    (fun tup ->
      let key = Tuple.project tup positions in
      Tuple.Table.add table key tup)
    rel;
  table

let join a b =
  let shared = Schema.common a.schema b.schema in
  if shared = [] then product a b
  else begin
    let schema = Schema.join a.schema b.schema in
    let pos_a = Array.of_list (List.map (Schema.index_of a.schema) shared) in
    let pos_b = Array.of_list (List.map (Schema.index_of b.schema) shared) in
    let rest_b =
      List.filter (fun n -> not (List.mem n shared)) (Schema.attributes b.schema)
    in
    let rest_pos_b =
      Array.of_list (List.map (Schema.index_of b.schema) rest_b)
    in
    let table = build_hash pos_b b in
    let tuples =
      fold
        (fun ta acc ->
          let key = Tuple.project ta pos_a in
          List.fold_left
            (fun acc tb ->
              Tuple_set.add (Tuple.concat ta (Tuple.project tb rest_pos_b)) acc)
            acc (Tuple.Table.find_all table key))
        a Tuple_set.empty
    in
    { schema; tuples }
  end

let semijoin a b =
  let shared = Schema.common a.schema b.schema in
  if shared = [] then if is_empty b then { a with tuples = Tuple_set.empty } else a
  else begin
    let pos_a = Array.of_list (List.map (Schema.index_of a.schema) shared) in
    let pos_b = Array.of_list (List.map (Schema.index_of b.schema) shared) in
    let table = build_hash pos_b b in
    filter (fun ta -> Tuple.Table.mem table (Tuple.project ta pos_a)) a
  end

let antijoin a b =
  let shared = Schema.common a.schema b.schema in
  if shared = [] then if is_empty b then a else { a with tuples = Tuple_set.empty }
  else begin
    let pos_a = Array.of_list (List.map (Schema.index_of a.schema) shared) in
    let pos_b = Array.of_list (List.map (Schema.index_of b.schema) shared) in
    let table = build_hash pos_b b in
    filter (fun ta -> not (Tuple.Table.mem table (Tuple.project ta pos_a))) a
  end

let divide r s =
  let s_attrs = Schema.attributes s.schema in
  List.iter
    (fun a ->
      if not (Schema.mem r.schema a) then
        err "divide: attribute %S of the divisor is not in the dividend" a)
    s_attrs;
  let keep =
    List.filter (fun a -> not (List.mem a s_attrs)) (Schema.attributes r.schema)
  in
  let candidates = project r keep in
  (* t survives iff {t} x s ⊆ r, i.e. no missing pairing *)
  let r_keep_pos = Array.of_list (List.map (Schema.index_of r.schema) keep) in
  let r_div_pos = Array.of_list (List.map (Schema.index_of r.schema) s_attrs) in
  let table = Hashtbl.create (max 16 (cardinality r)) in
  iter
    (fun tup ->
      Hashtbl.replace table
        (Tuple.project tup r_keep_pos, Tuple.project tup r_div_pos)
        ())
    r;
  let s_tuples = to_list s in
  filter
    (fun cand -> List.for_all (fun st -> Hashtbl.mem table (cand, st)) s_tuples)
    candidates

let active_domain t =
  let module Vs = Set.Make (struct
    type t = Value.t

    let compare = Value.compare_poly
  end) in
  let vs =
    fold
      (fun tup acc -> Array.fold_left (fun acc v -> Vs.add v acc) acc tup)
      t Vs.empty
  in
  Vs.elements vs

(* Each row's cells are made once, straight into the renderer's rows. *)
let to_string t =
  let rows = Array.make (cardinality t) [||] and i = ref 0 in
  iter
    (fun tup ->
      rows.(!i) <- Array.map Value.to_string tup;
      incr i)
    t;
  Support.Table.render_rows ~header:(Array.of_list (Schema.attributes t.schema)) rows

let pp fmt t = Format.pp_print_string fmt (to_string t)
