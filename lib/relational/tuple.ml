type t = Value.t array

let make = Array.of_list
let arity = Array.length
let get t i = t.(i)

(* Two ints or two strings, the columns almost every table holds, are
   compared directly; any other pair goes through Value.compare_poly,
   whose tag-first order they agree with.  The loop is a function of its
   own, so a comparison allocates no closure. *)
let rec compare_from a b n i =
  if i = n then Int.compare (Array.length a) (Array.length b)
  else
    let c =
      match (a.(i), b.(i)) with
      | Value.Int x, Value.Int y -> Int.compare x y
      | Value.String x, Value.String y -> String.compare x y
      | x, y -> Value.compare_poly x y
    in
    if c <> 0 then c else compare_from a b n (i + 1)

let compare a b =
  let la = Array.length a and lb = Array.length b in
  compare_from a b (if la < lb then la else lb) 0

let equal a b = compare a b = 0

let project t positions =
  let n = Array.length positions in
  if n = 0 then [||]
  else begin
    let out = Array.make n t.(positions.(0)) in
    for j = 1 to n - 1 do
      out.(j) <- t.(positions.(j))
    done;
    out
  end

let concat = Array.append

(* Each value is hashed by its tag; Hashtbl.hash maps -0.0 to 0.0 and
   every NaN to one NaN, as Float.compare equates them.  The multiply
   and shift spread the bits of small and strided ints alike. *)
let hash t =
  let h = ref 0 in
  for i = 0 to Array.length t - 1 do
    let x =
      match t.(i) with
      | Value.Int n -> n
      | Value.String s -> Hashtbl.hash s + 1
      | Value.Float f -> Hashtbl.hash f + 2
      | Value.Bool b -> if b then 4 else 3
    in
    h := (!h lxor x) * 0x9E3779B97F4A7C1
  done;
  !h lxor (!h lsr 29)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let to_string t =
  "<" ^ String.concat ", " (Array.to_list (Array.map Value.to_string t)) ^ ">"

let pp fmt t = Format.pp_print_string fmt (to_string t)
