type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let make n x = { data = Array.make n x; len = n }

let length v = v.len

let is_empty v = v.len = 0

let check v i =
  if i < 0 || i >= v.len then invalid_arg "Vec: index out of bounds"

let get v i =
  check v i;
  v.data.(i)

let set v i x =
  check v i;
  v.data.(i) <- x

let grow v x =
  let cap = Array.length v.data in
  let cap' = if cap = 0 then 8 else cap * 2 in
  let data' = Array.make cap' x in
  Array.blit v.data 0 data' 0 v.len;
  v.data <- data'

let push v x =
  if v.len = Array.length v.data then grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then None
  else begin
    v.len <- v.len - 1;
    Some v.data.(v.len)
  end

let pop_last v =
  if v.len = 0 then invalid_arg "Vec.pop_last: empty vector";
  v.len <- v.len - 1;
  v.data.(v.len)

let clear v = v.len <- 0

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let exists p v =
  let rec loop i = i < v.len && (p v.data.(i) || loop (i + 1)) in
  loop 0

let filter_in_place p v =
  let kept = ref 0 in
  for i = 0 to v.len - 1 do
    let x = v.data.(i) in
    if p x then begin
      v.data.(!kept) <- x;
      incr kept
    end
  done;
  v.len <- !kept

let shrink_to_fit v =
  if Array.length v.data > v.len then v.data <- Array.sub v.data 0 v.len

let to_list v =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (v.data.(i) :: acc) in
  loop (v.len - 1) []

let of_list l =
  let v = create () in
  List.iter (push v) l;
  v

let swap_remove v i =
  check v i;
  v.data.(i) <- v.data.(v.len - 1);
  v.len <- v.len - 1
