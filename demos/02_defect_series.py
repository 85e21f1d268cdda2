"""Defect series: how far products of conjugacy classes fall short.

For a finite group G whose commutator subgroup consists of single
commutators, the growth series of the structure group of the conjugation
solution on all of G is

    |[G,G]| ((1+t)/(1-t))^c  -  (1+t)^2 Delta_G(t),

where c counts conjugacy classes and Delta_G collects the defects
|[G,G]| - |C_1^{k_1} ... C_{c-1}^{k_{c-1}}| over all exponent vectors.  The
engine below computes Delta_G exactly as a rational function by chasing
bitmasks of conjugacy classes; the support is classified as finite, finite
plus axis-parallel rays, or richer.
"""

from ybe_growth import (
    as_full_conjugation_gf,
    defect_measure,
    defect_series,
    make_dihedral_group,
    make_symmetric_group,
)

for name, group in (
    ("S3", make_symmetric_group(3)),
    ("S4", make_symmetric_group(4)),
    ("S5", make_symmetric_group(5)),
    ("D5", make_dihedral_group(5)),
    ("D7", make_dihedral_group(7)),
    ("D9", make_dihedral_group(9)),
):
    result = defect_series(group, 8)
    print(f"Delta_{name}: {result.truncated.integer_coefficients()}  "
          f"[{result.classification}]")
    if result.closed_form is not None:
        print(f"  closed form: {result.closed_form!r}")
    for ray in result.axis_rays:
        members = " ".join(
            group.label(x) for x in group.conjugacy_classes().classes[ray.class_index]
        )
        print(f"  constant defect {ray.even_defect} along powers of {{{members}}} "
              f"from exponent {ray.start}")
    print()

print("A single defect value, computed through the class-product bitmask table:")
group = make_symmetric_group(4)
record = defect_measure(group, (0, 1, 1, 0))
print(f"  S4, exponents {record.exponents}: product covers {record.product_size} "
      f"of the {len(group.commutator_subgroup())} commutator elements "
      f"(defect {record.defect})")

print()
print("Full structure-group series for the largest shipped symmetric groups:")
for name, group, order in (("S4", make_symmetric_group(4), 6),
                           ("S5", make_symmetric_group(5), 6)):
    result = as_full_conjugation_gf(group, order)
    print(f"  As({name}) spheres: {result.truncated.integer_coefficients()}")
    if result.closed_form is not None:
        num = result.closed_form.num
        print(f"  numerator degree {num.degree} over (1-t)^{result.class_count} "
              f"(after clearing denominators)")
