package spec

// Sizes returns the operator, stage and leaf branch counts Validate
// predicts for s, with its error.
func Sizes(s *Spec) (ops, stages, leaves int, err error) {
	sz, err := s.validate()
	return sz.ops, sz.stages, sz.leaves, err
}

// SampleSpec is a representative two-branch exploration document shared by
// the in-package fuzz seeds and the external engine-integration tests.
const SampleSpec = `{
  "name": "demo",
  "source": {"rows": 2000, "partitions": 4, "virtualBytes": 268435456, "distribution": "normal", "seed": 3},
  "pipeline": [
    {"op": {"name": "standardize", "fn": "standardize", "costPerMB": 0.003}},
    {"explore": {
      "name": "outlier",
      "branches": [
        {"label": "k=3.0", "hint": 3.0, "params": {"limit": 3.0}},
        {"label": "k=2.0", "hint": 2.0, "params": {"limit": 2.0}},
        {"label": "k=1.0", "hint": 1.0, "params": {"limit": 1.0}}
      ],
      "body": [
        {"op": {"name": "filter", "fn": "filter-absless", "paramKey": "limit", "costPerMB": 0.002}}
      ],
      "choose": {"evaluator": "ratio", "monotone": true,
                 "selector": {"kind": "kthreshold", "k": 1, "bound": 0.9}}
    }},
    {"op": {"name": "sink", "fn": "identity"}}
  ]
}`
