let sorted xs = (List.sort compare xs [@th.allow "poly-compare"])

let unsorted xs = List.sort compare xs
