open Th_sim

type phases = {
  marking_ns : float;
  precompact_ns : float;
  adjust_ns : float;
  compact_ns : float;
}

type cycle =
  | Minor of { at_ns : float; duration_ns : float }
  | Major of {
      at_ns : float;
      duration_ns : float;
      phases : phases;
      old_occupancy_after : float;
      bytes_moved_to_h2 : int;
      regions_freed : int;
    }

type t = {
  cycles : cycle Vec.t;
  occupancy : (float * float) Vec.t;
}

let create () = { cycles = Vec.create (); occupancy = Vec.create () }

let record t c = Vec.push t.cycles c

let record_occupancy t ~at_ns occ = Vec.push t.occupancy (at_ns, occ)

let cycles t = Vec.to_list t.cycles

let cycle_count t = Vec.length t.cycles

let count p t = Vec.fold_left (fun n c -> if p c then n + 1 else n) 0 t.cycles

let minor_count t = count (function Minor _ -> true | Major _ -> false) t

let major_count t = count (function Major _ -> true | Minor _ -> false) t

let minor_total_ns t =
  Vec.fold_left
    (fun acc -> function Minor m -> acc +. m.duration_ns | Major _ -> acc)
    0.0 t.cycles

let major_total_ns t =
  Vec.fold_left
    (fun acc -> function Major m -> acc +. m.duration_ns | Minor _ -> acc)
    0.0 t.cycles

let avg_major_ns t =
  let n = major_count t in
  if n = 0 then 0.0 else major_total_ns t /. float_of_int n

let zero_phases =
  { marking_ns = 0.0; precompact_ns = 0.0; adjust_ns = 0.0; compact_ns = 0.0 }

let add_phases a b =
  {
    marking_ns = a.marking_ns +. b.marking_ns;
    precompact_ns = a.precompact_ns +. b.precompact_ns;
    adjust_ns = a.adjust_ns +. b.adjust_ns;
    compact_ns = a.compact_ns +. b.compact_ns;
  }

let phase_totals t =
  Vec.fold_left
    (fun acc -> function
      | Major m -> add_phases acc m.phases
      | Minor _ -> acc)
    zero_phases t.cycles

let occupancy_timeline t = Vec.to_list t.occupancy
