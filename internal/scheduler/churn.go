package scheduler

import "metadataflow/internal/graph"

// RankChurn quantifies how much a policy changed its mind between two
// consecutive candidate rankings (PickRecord.Candidates, best first): the
// number of stages of cur whose position differs from their position in
// prev, counting stages absent from prev as moved. A stable ranking churns
// 0; a freshly inverted one churns len(cur). The engine feeds consecutive
// pick records through this and emits the result as the sched.rank_churn
// time series, making BAS hint-regression volatility observable over
// virtual time.
func RankChurn(prev, cur []*graph.Stage) int {
	if len(prev) == 0 {
		// The first ranking has nothing to churn against.
		return 0
	}
	// A ranking lists a stage once, so a stage of cur kept its position
	// exactly when prev holds the same stage there.
	churn := 0
	for i, st := range cur {
		if i >= len(prev) || prev[i].ID != st.ID {
			churn++
		}
	}
	return churn
}
