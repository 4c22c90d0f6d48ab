(* Tests for the relational substrate: values, schemas, relations, algebra
   typing, evaluation, CSV persistence, and optimizer equivalence. *)

module R = Relational
module A = R.Algebra
open R.Value
open Fixtures

let check_rel = Alcotest.check relation_testable

(* --- values -------------------------------------------------------------- *)

let test_value_compare_within_type () =
  Alcotest.(check bool) "int order" true (R.Value.compare (Int 1) (Int 2) < 0);
  Alcotest.(check bool) "string order" true
    (R.Value.compare (String "a") (String "b") < 0);
  Alcotest.(check bool) "bool order" true
    (R.Value.compare (Bool false) (Bool true) < 0)

let test_value_compare_across_types_raises () =
  Alcotest.check_raises "type clash"
    (R.Value.Type_clash "cannot compare int value 1 with string value \"x\"")
    (fun () -> ignore (R.Value.compare (Int 1) (String "x")))

let test_value_compare_poly_total () =
  let vs = [ Int 1; String "a"; Float 1.5; Bool true ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let c1 = R.Value.compare_poly a b and c2 = R.Value.compare_poly b a in
          Alcotest.(check bool) "antisymmetric" true (Int.compare c1 (-c2) = 0 || (c1 = 0 && c2 = 0)))
        vs)
    vs

let test_value_parse_roundtrip () =
  let check ty v =
    match R.Value.parse ty (R.Value.to_string v) with
    | Some v' -> Alcotest.(check bool) "roundtrip" true (R.Value.equal v v')
    | None -> Alcotest.fail "parse failed"
  in
  check TInt (Int 42);
  check TString (String "hello");
  check TBool (Bool true);
  Alcotest.(check bool) "garbage int" true (R.Value.parse TInt "xyz" = None)

(* --- schemas ------------------------------------------------------------- *)

let test_schema_duplicate_rejected () =
  Alcotest.check_raises "duplicate"
    (R.Schema.Schema_error "duplicate attribute \"a\" in schema") (fun () ->
      ignore (R.Schema.make [ ("a", TInt); ("a", TString) ]))

let test_schema_project_order () =
  let s = schema [ ("a", TInt); ("b", TString); ("c", TBool) ] in
  let p = R.Schema.project s [ "c"; "a" ] in
  Alcotest.(check (list string)) "order preserved" [ "c"; "a" ]
    (R.Schema.attributes p)

let test_schema_rename_simultaneous () =
  let s = schema [ ("a", TInt); ("b", TInt) ] in
  (* swap a and b in one simultaneous step *)
  let r = R.Schema.rename s [ ("a", "b"); ("b", "a") ] in
  Alcotest.(check (list string)) "swapped" [ "b"; "a" ] (R.Schema.attributes r)

let test_schema_union_compatible_reorder () =
  let s1 = schema [ ("a", TInt); ("b", TString) ] in
  let s2 = schema [ ("b", TString); ("a", TInt) ] in
  Alcotest.(check bool) "compatible" true (R.Schema.union_compatible s1 s2);
  Alcotest.(check bool) "not equal" false (R.Schema.equal s1 s2)

let test_schema_product_clash () =
  let s = schema [ ("a", TInt) ] in
  Alcotest.check_raises "clash"
    (R.Schema.Schema_error "product: attribute \"a\" occurs on both sides")
    (fun () -> ignore (R.Schema.product s s))

let test_schema_join_shared_type_clash () =
  let s1 = schema [ ("a", TInt) ] and s2 = schema [ ("a", TString) ] in
  Alcotest.(check bool) "raises" true
    (match R.Schema.common s1 s2 with
    | _ -> false
    | exception R.Schema.Schema_error _ -> true)

(* --- relations ------------------------------------------------------------ *)

let test_relation_dedup () =
  let r =
    R.Relation.of_list (schema [ ("a", TInt) ]) [ [ Int 1 ]; [ Int 1 ]; [ Int 2 ] ]
  in
  Alcotest.(check int) "set semantics" 2 (R.Relation.cardinality r)

let test_relation_type_check () =
  Alcotest.(check bool) "wrong type rejected" true
    (match R.Relation.of_list (schema [ ("a", TInt) ]) [ [ String "x" ] ] with
    | _ -> false
    | exception R.Relation.Arity_error _ -> true);
  Alcotest.(check bool) "wrong arity rejected" true
    (match R.Relation.of_list (schema [ ("a", TInt) ]) [ [ Int 1; Int 2 ] ] with
    | _ -> false
    | exception R.Relation.Arity_error _ -> true)

let test_relation_union_realigns () =
  let r1 = R.Relation.of_list (schema [ ("a", TInt); ("b", TInt) ]) [ [ Int 1; Int 2 ] ] in
  let r2 = R.Relation.of_list (schema [ ("b", TInt); ("a", TInt) ]) [ [ Int 2; Int 1 ] ] in
  (* same tuple once the columns are aligned by name *)
  Alcotest.(check int) "aligned union" 1 (R.Relation.cardinality (R.Relation.union r1 r2));
  Alcotest.(check bool) "equal up to column order" true (R.Relation.equal r1 r2)

let test_relation_project () =
  let p = R.Relation.project students [ "year" ] in
  Alcotest.(check int) "distinct years" 3 (R.Relation.cardinality p)

let test_relation_join () =
  let j = R.Relation.join students enrolled in
  (* every enrollment row extended with student info: 9 rows *)
  Alcotest.(check int) "join cardinality" 9 (R.Relation.cardinality j);
  Alcotest.(check (list string)) "join schema"
    [ "sid"; "sname"; "year"; "cid"; "grade" ]
    (R.Schema.attributes (R.Relation.schema j))

let test_relation_join_no_shared_is_product () =
  let j = R.Relation.join students courses in
  Alcotest.(check int) "product size" 20 (R.Relation.cardinality j)

let test_relation_semijoin_antijoin () =
  let enrolled_students = R.Relation.semijoin students enrolled in
  Alcotest.(check int) "students with enrollment" 4
    (R.Relation.cardinality enrolled_students);
  let idle = R.Relation.antijoin students enrolled in
  Alcotest.(check int) "students without enrollment" 1 (R.Relation.cardinality idle);
  (* partition property *)
  check_rel "semijoin + antijoin = all" students
    (R.Relation.union enrolled_students idle)

let test_relation_divide () =
  (* who is enrolled in every cs course? *)
  let cs =
    R.Relation.project
      (R.Relation.select
         (fun t -> R.Value.equal t.(2) (String "cs"))
         courses)
      [ "cid" ]
  in
  let pairs = R.Relation.project enrolled [ "sid"; "cid" ] in
  let result = R.Relation.divide pairs cs in
  Alcotest.(check (list (list string)))
    "only ada takes all cs courses"
    [ [ "1" ] ]
    (List.map (List.map R.Value.to_string) (rows result))

let test_relation_divide_empty_divisor () =
  let pairs = R.Relation.project enrolled [ "sid"; "cid" ] in
  let empty_divisor = R.Relation.create (schema [ ("cid", TInt) ]) in
  let result = R.Relation.divide pairs empty_divisor in
  (* dividing by the empty set yields all candidates *)
  Alcotest.(check int) "all sids" 4 (R.Relation.cardinality result)

let test_active_domain () =
  let adom = R.Relation.active_domain edges in
  Alcotest.(check int) "seven vertices" 7 (List.length adom)

(* --- algebra typing -------------------------------------------------------- *)

let catalog = A.catalog_of_database university

let test_algebra_schema_inference () =
  let e = A.Project ([ "sname" ], A.Join (A.Rel "students", A.Rel "enrolled")) in
  Alcotest.(check (list string)) "schema" [ "sname" ]
    (R.Schema.attributes (A.schema_of catalog e))

let test_algebra_bad_union () =
  Alcotest.(check bool) "union type error" true
    (not (A.well_typed catalog (A.Union (A.Rel "students", A.Rel "courses"))))

let test_algebra_bad_predicate_attr () =
  let e = A.Select (A.Cmp (A.Eq, A.Attr "nope", A.Const (Int 1)), A.Rel "students") in
  Alcotest.(check bool) "unknown attribute" true (not (A.well_typed catalog e))

let test_algebra_cross_type_predicate () =
  let e =
    A.Select (A.Cmp (A.Eq, A.Attr "sid", A.Const (String "x")), A.Rel "students")
  in
  Alcotest.(check bool) "cross-type comparison" true (not (A.well_typed catalog e))

let test_algebra_singleton () =
  let e = A.Singleton [ ("k", Int 7); ("name", String "x") ] in
  Alcotest.(check (list string)) "singleton schema" [ "k"; "name" ]
    (R.Schema.attributes (A.schema_of catalog e))

let test_algebra_divide_typing () =
  let pairs = A.Project ([ "sid"; "cid" ], A.Rel "enrolled") in
  let divisor = A.Project ([ "cid" ], A.Rel "courses") in
  let e = A.Divide (pairs, divisor) in
  Alcotest.(check (list string)) "quotient schema" [ "sid" ]
    (R.Schema.attributes (A.schema_of catalog e))

(* --- evaluation ------------------------------------------------------------ *)

let eval = R.Eval.eval university

let test_eval_select_project () =
  let e =
    A.Project
      ( [ "sname" ],
        A.Select (A.Cmp (A.Ge, A.Attr "grade", A.Const (Int 85)),
                  A.Join (A.Rel "students", A.Rel "enrolled")) )
  in
  Alcotest.(check (list (list string)))
    "top students"
    [ [ "ada" ]; [ "dan" ] ]
    (List.map (List.map R.Value.to_string) (rows (eval e)))

let test_eval_union_diff () =
  let year1 = A.Select (A.Cmp (A.Eq, A.Attr "year", A.Const (Int 1)), A.Rel "students") in
  let others = A.Diff (A.Rel "students", year1) in
  let all = A.Union (year1, others) in
  check_rel "partition" students (eval all);
  Alcotest.(check int) "others" 3 (R.Relation.cardinality (eval others))

let test_eval_rename_join () =
  (* pairs of students in the same year: rename and join on year *)
  let left = A.Project ([ "sid"; "year" ], A.Rel "students") in
  let right =
    A.Rename ([ ("sid", "sid2") ], A.Project ([ "sid"; "year" ], A.Rel "students"))
  in
  let pairs =
    A.Select (A.Cmp (A.Lt, A.Attr "sid", A.Attr "sid2"), A.Join (left, right))
  in
  Alcotest.(check int) "same-year pairs" 2 (R.Relation.cardinality (eval pairs))

let test_eval_singleton_product () =
  let e = A.Product (A.Singleton [ ("tag", String "x") ], A.Rel "courses") in
  Alcotest.(check int) "tagged" 4 (R.Relation.cardinality (eval e))

let test_eval_zero_ary () =
  (* boolean query: is anyone enrolled in course 10? *)
  let yes =
    A.Project ([], A.Select (A.Cmp (A.Eq, A.Attr "cid", A.Const (Int 10)), A.Rel "enrolled"))
  in
  let no =
    A.Project ([], A.Select (A.Cmp (A.Eq, A.Attr "cid", A.Const (Int 999)), A.Rel "enrolled"))
  in
  Alcotest.(check int) "true is one empty tuple" 1 (R.Relation.cardinality (eval yes));
  Alcotest.(check int) "false is empty" 0 (R.Relation.cardinality (eval no))

let test_eval_divide () =
  let pairs = A.Project ([ "sid"; "cid" ], A.Rel "enrolled") in
  let cs =
    A.Project ([ "cid" ], A.Select (A.Cmp (A.Eq, A.Attr "dept", A.Const (String "cs")), A.Rel "courses"))
  in
  let r = eval (A.Divide (pairs, cs)) in
  Alcotest.(check (list (list string))) "ada" [ [ "1" ] ]
    (List.map (List.map R.Value.to_string) (rows r))

(* --- CSV -------------------------------------------------------------------- *)

let test_csv_roundtrip () =
  let text = R.Csv.relation_to_string students in
  let back = R.Csv.relation_of_string text in
  check_rel "roundtrip" students back

let test_csv_quoting () =
  let s = schema [ ("a", TString); ("b", TInt) ] in
  let r =
    R.Relation.of_list s
      [ [ String "has,comma"; Int 1 ]; [ String "has\"quote"; Int 2 ] ]
  in
  check_rel "quoted roundtrip" r (R.Csv.relation_of_string (R.Csv.relation_to_string r))

let test_csv_bad_header () =
  Alcotest.(check bool) "missing type" true
    (match R.Csv.relation_of_string "a,b\n1,2\n" with
    | _ -> false
    | exception R.Csv.Parse_error _ -> true)

let test_csv_bad_row () =
  Alcotest.(check bool) "wrong arity row" true
    (match R.Csv.relation_of_string "a:int\n1,2\n" with
    | _ -> false
    | exception R.Csv.Parse_error _ -> true)

(* --- optimizer --------------------------------------------------------------- *)

let stats = R.Optimizer.stats_of_database university

let test_optimizer_preserves_semantics_fixed () =
  let queries =
    [
      A.Project
        ( [ "sname" ],
          A.Select
            ( A.And
                ( A.Cmp (A.Ge, A.Attr "grade", A.Const (Int 80)),
                  A.Cmp (A.Eq, A.Attr "dept", A.Const (String "cs")) ),
              A.Join (A.Join (A.Rel "students", A.Rel "enrolled"), A.Rel "courses") ) );
      A.Select
        ( A.Cmp (A.Eq, A.Attr "year", A.Const (Int 1)),
          A.Union
            ( A.Rel "students",
              A.Select (A.Cmp (A.Gt, A.Attr "sid", A.Const (Int 2)), A.Rel "students") ) );
    ]
  in
  List.iter
    (fun q ->
      let expected = eval q in
      let optimized = R.Optimizer.optimize catalog stats q in
      check_rel "optimize preserves" expected (eval optimized))
    queries

let test_optimizer_pushes_selection () =
  let q =
    A.Select
      ( A.Cmp (A.Eq, A.Attr "dept", A.Const (String "cs")),
        A.Join (A.Rel "enrolled", A.Rel "courses") )
  in
  let opt = R.Optimizer.push_selections catalog q in
  (* after push-down the selection sits below the join *)
  let rec top_is_join = function
    | A.Join _ -> true
    | A.Project (_, e) -> top_is_join e
    | _ -> false
  in
  Alcotest.(check bool) "selection pushed below join" true (top_is_join opt);
  check_rel "still equivalent" (eval q) (eval opt)

let test_optimizer_estimate_monotone () =
  let small = A.Select (A.Cmp (A.Eq, A.Attr "sid", A.Const (Int 1)), A.Rel "students") in
  Alcotest.(check bool) "selection shrinks estimate" true
    (R.Optimizer.estimate catalog stats small
    < R.Optimizer.estimate catalog stats (A.Rel "students"))

(* --- property tests ----------------------------------------------------------- *)

let property count name gen law =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen law)

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let random_db_and_query seed =
  let rng = Support.Rng.create seed in
  let db =
    R.Generator.random_database rng ~relations:3 ~arity:3 ~size:8 ~domain:5
  in
  let q = R.Generator.random_query rng db ~depth:3 ~domain:5 in
  (db, q)

let prop_generated_queries_well_typed =
  property 100 "generated queries are well-typed" seed_gen (fun seed ->
      let db, q = random_db_and_query seed in
      A.well_typed (A.catalog_of_database db) q)

let prop_optimizer_equivalence =
  property 100 "optimize preserves semantics" seed_gen (fun seed ->
      let db, q = random_db_and_query seed in
      let catalog = A.catalog_of_database db in
      let stats = R.Optimizer.stats_of_database db in
      let before = R.Eval.eval db q in
      let after = R.Eval.eval db (R.Optimizer.optimize catalog stats q) in
      R.Relation.equal before after)

let prop_push_selections_equivalence =
  property 100 "push_selections preserves semantics" seed_gen (fun seed ->
      let db, q = random_db_and_query seed in
      let catalog = A.catalog_of_database db in
      let before = R.Eval.eval db q in
      let after = R.Eval.eval db (R.Optimizer.push_selections catalog q) in
      R.Relation.equal before after)

let prop_order_joins_equivalence =
  property 100 "order_joins preserves semantics" seed_gen (fun seed ->
      let db, q = random_db_and_query seed in
      let catalog = A.catalog_of_database db in
      let stats = R.Optimizer.stats_of_database db in
      let before = R.Eval.eval db q in
      let after = R.Eval.eval db (R.Optimizer.order_joins catalog stats q) in
      R.Relation.equal before after)

let prop_prune_projections_equivalence =
  property 100 "prune_projections preserves semantics" seed_gen (fun seed ->
      let db, q = random_db_and_query seed in
      let catalog = A.catalog_of_database db in
      let before = R.Eval.eval db q in
      let after = R.Eval.eval db (R.Optimizer.prune_projections catalog q) in
      R.Relation.equal before after)

let prop_csv_roundtrip =
  property 50 "csv roundtrip on random relations" seed_gen (fun seed ->
      let rng = Support.Rng.create seed in
      let s = R.Generator.random_schema rng ~prefix:"a" ~arity:3 in
      let r = R.Generator.random_relation rng s ~size:10 ~domain:6 in
      R.Relation.equal r (R.Csv.relation_of_string (R.Csv.relation_to_string r)))

let prop_join_commutes =
  property 50 "join commutes (as sets)" seed_gen (fun seed ->
      let rng = Support.Rng.create seed in
      let s1 = R.Schema.make [ ("a", TInt); ("b", TInt) ] in
      let s2 = R.Schema.make [ ("b", TInt); ("c", TInt) ] in
      let r1 = R.Generator.random_relation rng s1 ~size:10 ~domain:4 in
      let r2 = R.Generator.random_relation rng s2 ~size:10 ~domain:4 in
      R.Relation.equal (R.Relation.join r1 r2) (R.Relation.join r2 r1))

let prop_union_idempotent =
  property 50 "union idempotent, diff self empty" seed_gen (fun seed ->
      let rng = Support.Rng.create seed in
      let s = R.Generator.random_schema rng ~prefix:"a" ~arity:2 in
      let r = R.Generator.random_relation rng s ~size:10 ~domain:4 in
      R.Relation.equal r (R.Relation.union r r)
      && R.Relation.is_empty (R.Relation.diff r r))

let prop_divide_product_inverse =
  property 50 "divide inverts product" seed_gen (fun seed ->
      let rng = Support.Rng.create seed in
      let s1 = R.Schema.make [ ("a", TInt) ] in
      let s2 = R.Schema.make [ ("b", TInt) ] in
      let r1 = R.Generator.random_relation rng s1 ~size:6 ~domain:8 in
      let r2 = R.Generator.random_relation rng s2 ~size:6 ~domain:8 in
      (* (r1 x r2) / r2 = r1 whenever r2 is non-empty *)
      R.Relation.is_empty r2
      || R.Relation.equal r1 (R.Relation.divide (R.Relation.product r1 r2) r2))

(* --- the answer path's kernels against the versions they replaced ----------- *)

(* The rank-then-value order Tuple.compare had before it compared ints
   and strings directly. *)
let reference_tuple_compare a b =
  let la = Array.length a and lb = Array.length b in
  let rec loop i =
    if i = la && i = lb then 0
    else if i = la then -1
    else if i = lb then 1
    else
      let c = R.Value.compare_poly a.(i) b.(i) in
      if c <> 0 then c else loop (i + 1)
  in
  loop 0

(* Values from small pools of every tag, edge values included, so that
   random tuples share prefixes and tie often. *)
let edge_value_gen =
  let open QCheck2.Gen in
  oneof
    [
      map (fun i -> Int i) (oneofl [ min_int; -1; 0; 1; 7; max_int ]);
      map (fun i -> Int i) int;
      map (fun s -> String s) (oneofl [ ""; "a"; "ab"; "b"; "\xff" ]);
      map (fun f -> Float f) (oneofl [ 0.0; -0.0; nan; -.nan; 1.5; -1.5; infinity; neg_infinity ]);
      map (fun b -> Bool b) bool;
    ]

let mixed_tuple_gen = QCheck2.Gen.(map Array.of_list (list_size (int_range 0 4) edge_value_gen))

let prop_tuple_compare_reference =
  property 2000 "Tuple.compare = rank-then-value reference (mixed tags)"
    QCheck2.Gen.(pair mixed_tuple_gen mixed_tuple_gen)
    (fun (a, b) ->
      (* a shared prefix makes the tail decide *)
      let b' = Array.append (Array.sub a 0 (Array.length a / 2)) b in
      List.for_all
        (fun (x, y) ->
          R.Tuple.compare x y = reference_tuple_compare x y
          && ((not (R.Tuple.equal x y)) || R.Tuple.hash x = R.Tuple.hash y))
        [ (a, b); (b, a); (a, b'); (b', a); (a, a); (a, Array.copy a) ])

let test_tuple_hash_float_classes () =
  let h v = R.Tuple.hash [| Float v |] in
  Alcotest.(check int) "-0.0 with 0.0" (h 0.0) (h (-0.0));
  Alcotest.(check int) "every NaN together" (h nan)
    (h (Int64.float_of_bits 0x7FF0000000000123L));
  Alcotest.(check int) "negative NaN too" (h nan) (h (-.nan));
  let t = R.Tuple.Table.create 4 in
  R.Tuple.Table.add t [| Float nan; Float (-0.0) |] "x";
  Alcotest.(check (list string)) "a key finds its equals" [ "x" ]
    (R.Tuple.Table.find_all t [| Float (-.nan); Float 0.0 |])

let test_int_to_string_edges () =
  List.iter
    (fun n -> Alcotest.(check string) (string_of_int n) (string_of_int n) (R.Value.to_string (Int n)))
    [ 0; 1; -1; 9; 10; -9; -10; 99; 100; -100; 123456789; max_int; min_int; max_int - 1; min_int + 1 ]

let prop_int_to_string =
  property 2000 "Value.to_string (Int n) = string_of_int n" QCheck2.Gen.int (fun n ->
      R.Value.to_string (Int n) = string_of_int n
      && R.Value.to_string (Int (n asr 40)) = string_of_int (n asr 40))

(* The renderer as it was: lists of cells laid into a growing buffer,
   every value through string_of_int / %g / string_of_bool. *)
let reference_render ~header rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)))
    all;
  let widest = Array.fold_left max 0 widths in
  let line = Array.fold_left ( + ) (2 * max 0 (ncols - 1) + 1) widths in
  let buf = Buffer.create (line * (List.length all + 1)) in
  let spaces = String.make widest ' ' and dashes = String.make widest '-' in
  let cell i fill len s =
    if i > 0 then Buffer.add_string buf "  ";
    Buffer.add_string buf s;
    Buffer.add_substring buf fill 0 (widths.(i) - len)
  in
  let add_row r =
    let n = List.fold_left (fun i s -> cell i spaces (String.length s) s; i + 1) 0 r in
    for i = n to ncols - 1 do
      cell i spaces 0 ""
    done;
    Buffer.add_char buf '\n'
  in
  add_row header;
  for i = 0 to ncols - 1 do
    cell i dashes 0 ""
  done;
  Buffer.add_char buf '\n';
  List.iter add_row rows;
  Buffer.contents buf

let reference_value_to_string = function
  | Int i -> string_of_int i
  | String s -> s
  | Float f -> Printf.sprintf "%g" f
  | Bool b -> string_of_bool b

let reference_to_string rel =
  reference_render
    ~header:(R.Schema.attributes (R.Relation.schema rel))
    (List.map
       (fun tup -> Array.to_list (Array.map reference_value_to_string tup))
       (R.Relation.to_list rel))

(* 0-3 columns of any type, 0-300 rows, negative ints and wide cells. *)
let random_relation_gen =
  let open QCheck2.Gen in
  let* tys = list_size (int_range 0 3) (oneofl [ TInt; TString; TFloat; TBool ]) in
  let value = function
    | TInt -> map (fun i -> Int i) (oneof [ int_range (-1000) 1000; int ])
    | TString ->
        map (fun s -> String s)
          (oneof [ string_size ~gen:printable (int_range 0 3); string_size ~gen:printable (int_range 20 40) ])
    | TFloat -> map (fun f -> Float f) (oneof [ float; oneofl [ 0.0; -0.0; nan; 1e300 ] ])
    | TBool -> map (fun b -> Bool b) bool
  in
  let+ rows = list_size (int_range 0 300) (flatten_l (List.map value tys)) in
  let schema = R.Schema.make (List.mapi (fun i ty -> (Printf.sprintf "c%d" i, ty)) tys) in
  R.Relation.of_list schema rows

let prop_render_reference =
  property 200 "Relation.to_string = the list-based rendering" random_relation_gen (fun rel ->
      String.equal (R.Relation.to_string rel) (reference_to_string rel))

let test_render_ragged_rows () =
  let header = [ "a"; "bb" ] and rows = [ [ "x" ]; [ "yyy"; "z"; "extra" ]; [] ] in
  Alcotest.(check string) "short and long rows" (reference_render ~header rows)
    (Support.Table.render ~header rows);
  Alcotest.(check string) "no columns" (reference_render ~header:[] [ []; [] ])
    (Support.Table.render ~header:[] [ []; [] ])

(* Relation.project as it was: always a new schema and a mapped set. *)
let reference_project rel attrs =
  let schema = R.Relation.schema rel in
  let positions = Array.of_list (List.map (R.Schema.index_of schema) attrs) in
  R.Relation.of_tuples (R.Schema.project schema attrs)
    (List.map (fun tup -> Array.map (fun i -> tup.(i)) positions) (R.Relation.to_list rel))

let prop_project_reference =
  property 200 "Relation.project = the mapped projection (identity, permuted, prefix)"
    QCheck2.Gen.(pair random_relation_gen (int_range 0 1_000_000))
    (fun (rel, seed) ->
      let attrs = R.Schema.attributes (R.Relation.schema rel) in
      let rng = Random.State.make [| seed |] in
      let permuted =
        List.map snd (List.sort Stdlib.compare (List.map (fun a -> (Random.State.bits rng, a)) attrs))
      in
      let prefix = List.filteri (fun i _ -> i < Random.State.int rng (List.length attrs + 1)) attrs in
      List.for_all
        (fun attrs ->
          let got = R.Relation.project rel attrs and want = reference_project rel attrs in
          R.Schema.equal (R.Relation.schema got) (R.Relation.schema want)
          && R.Relation.Tuple_set.equal (R.Relation.tuples got) (R.Relation.tuples want))
        [ attrs; permuted; prefix ])

let suite =
  [
    Alcotest.test_case "value compare within type" `Quick test_value_compare_within_type;
    Alcotest.test_case "value compare across types raises" `Quick
      test_value_compare_across_types_raises;
    Alcotest.test_case "value compare_poly total" `Quick test_value_compare_poly_total;
    Alcotest.test_case "value parse roundtrip" `Quick test_value_parse_roundtrip;
    Alcotest.test_case "schema duplicate rejected" `Quick test_schema_duplicate_rejected;
    Alcotest.test_case "schema project order" `Quick test_schema_project_order;
    Alcotest.test_case "schema rename simultaneous" `Quick test_schema_rename_simultaneous;
    Alcotest.test_case "schema union-compatible reorder" `Quick
      test_schema_union_compatible_reorder;
    Alcotest.test_case "schema product clash" `Quick test_schema_product_clash;
    Alcotest.test_case "schema join type clash" `Quick test_schema_join_shared_type_clash;
    Alcotest.test_case "relation dedup" `Quick test_relation_dedup;
    Alcotest.test_case "relation type check" `Quick test_relation_type_check;
    Alcotest.test_case "relation union realigns" `Quick test_relation_union_realigns;
    Alcotest.test_case "relation project" `Quick test_relation_project;
    Alcotest.test_case "relation join" `Quick test_relation_join;
    Alcotest.test_case "join without shared attrs" `Quick
      test_relation_join_no_shared_is_product;
    Alcotest.test_case "semijoin/antijoin" `Quick test_relation_semijoin_antijoin;
    Alcotest.test_case "divide" `Quick test_relation_divide;
    Alcotest.test_case "divide by empty" `Quick test_relation_divide_empty_divisor;
    Alcotest.test_case "active domain" `Quick test_active_domain;
    Alcotest.test_case "algebra schema inference" `Quick test_algebra_schema_inference;
    Alcotest.test_case "algebra bad union" `Quick test_algebra_bad_union;
    Alcotest.test_case "algebra bad predicate attr" `Quick test_algebra_bad_predicate_attr;
    Alcotest.test_case "algebra cross-type predicate" `Quick
      test_algebra_cross_type_predicate;
    Alcotest.test_case "algebra singleton" `Quick test_algebra_singleton;
    Alcotest.test_case "algebra divide typing" `Quick test_algebra_divide_typing;
    Alcotest.test_case "eval select/project" `Quick test_eval_select_project;
    Alcotest.test_case "eval union/diff" `Quick test_eval_union_diff;
    Alcotest.test_case "eval rename join" `Quick test_eval_rename_join;
    Alcotest.test_case "eval singleton product" `Quick test_eval_singleton_product;
    Alcotest.test_case "eval zero-ary (boolean)" `Quick test_eval_zero_ary;
    Alcotest.test_case "eval divide" `Quick test_eval_divide;
    Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
    Alcotest.test_case "csv quoting" `Quick test_csv_quoting;
    Alcotest.test_case "csv bad header" `Quick test_csv_bad_header;
    Alcotest.test_case "csv bad row" `Quick test_csv_bad_row;
    Alcotest.test_case "optimizer fixed queries" `Quick
      test_optimizer_preserves_semantics_fixed;
    Alcotest.test_case "optimizer pushes selection" `Quick test_optimizer_pushes_selection;
    Alcotest.test_case "optimizer estimate monotone" `Quick test_optimizer_estimate_monotone;
    prop_generated_queries_well_typed;
    prop_optimizer_equivalence;
    prop_push_selections_equivalence;
    prop_order_joins_equivalence;
    prop_prune_projections_equivalence;
    prop_csv_roundtrip;
    prop_join_commutes;
    prop_union_idempotent;
    prop_divide_product_inverse;
    prop_tuple_compare_reference;
    Alcotest.test_case "tuple hash float classes" `Quick test_tuple_hash_float_classes;
    Alcotest.test_case "int rendering edges" `Quick test_int_to_string_edges;
    prop_int_to_string;
    prop_render_reference;
    Alcotest.test_case "render ragged rows" `Quick test_render_ragged_rows;
    prop_project_reference;
  ]
