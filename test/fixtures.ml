(* Shared example instances used across the test suites: a small university
   database (the classic running example) and graph instances for the
   recursive-query tests. *)

module R = Relational
open R.Value

let schema pairs = R.Schema.make pairs

let students_schema =
  schema [ ("sid", TInt); ("sname", TString); ("year", TInt) ]

let courses_schema =
  schema [ ("cid", TInt); ("title", TString); ("dept", TString) ]

let enrolled_schema = schema [ ("sid", TInt); ("cid", TInt); ("grade", TInt) ]

let students =
  R.Relation.of_list students_schema
    [
      [ Int 1; String "ada"; Int 3 ];
      [ Int 2; String "bob"; Int 1 ];
      [ Int 3; String "cyn"; Int 2 ];
      [ Int 4; String "dan"; Int 3 ];
      [ Int 5; String "eve"; Int 1 ];
    ]

let courses =
  R.Relation.of_list courses_schema
    [
      [ Int 10; String "databases"; String "cs" ];
      [ Int 11; String "logic"; String "cs" ];
      [ Int 12; String "algebra"; String "math" ];
      [ Int 13; String "ethics"; String "phil" ];
    ]

let enrolled =
  R.Relation.of_list enrolled_schema
    [
      [ Int 1; Int 10; Int 95 ];
      [ Int 1; Int 11; Int 88 ];
      [ Int 1; Int 12; Int 91 ];
      [ Int 1; Int 13; Int 77 ];
      [ Int 2; Int 10; Int 60 ];
      [ Int 3; Int 11; Int 72 ];
      [ Int 3; Int 12; Int 80 ];
      [ Int 4; Int 10; Int 85 ];
      [ Int 4; Int 12; Int 70 ];
    ]

let university =
  R.Database.of_list
    [ ("students", students); ("courses", courses); ("enrolled", enrolled) ]

(* A small directed graph: 1 -> 2 -> 3 -> 4, 2 -> 5, plus a cycle 6 <-> 7 *)
let edge_schema = schema [ ("src", TInt); ("dst", TInt) ]

let edges =
  R.Relation.of_list edge_schema
    [
      [ Int 1; Int 2 ];
      [ Int 2; Int 3 ];
      [ Int 3; Int 4 ];
      [ Int 2; Int 5 ];
      [ Int 6; Int 7 ];
      [ Int 7; Int 6 ];
    ]

let graph_db = R.Database.of_list [ ("edge", edges) ]

let relation_testable =
  Alcotest.testable
    (fun fmt r -> Format.pp_print_string fmt (R.Relation.to_string r))
    R.Relation.equal

let rows rel =
  R.Relation.to_list rel |> List.map Array.to_list

(* Damage a file at rest, as a bad disk or a hand edit would:
   [edit_file path ~off ~len f] reads [len] bytes at [off], lets [f]
   change them, and writes them back in place. *)
let edit_file path ~off ~len f =
  let bytes = Bytes.of_string (Support.Io.read_span path ~from:off ~len) in
  f bytes;
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0 path in
  seek_out oc off;
  output_bytes oc bytes;
  close_out oc

let truncate_file path len = Unix.truncate path len
