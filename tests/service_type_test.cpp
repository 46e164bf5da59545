#include <gtest/gtest.h>

#include "virolab/catalogue.hpp"
#include "wfl/service.hpp"

namespace ig::wfl {
namespace {

ServiceType pod() {
  ServiceType service("POD");
  service.set_inputs({"A", "B"});
  service.set_input_condition(Condition::parse(
      "A.Classification = \"POD-Parameter\" and B.Classification = \"2D Image\""));
  service.set_outputs({"C"});
  service.set_output_condition(Condition::parse("C.Classification = \"Orientation File\""));
  return service;
}

DataSet pod_inputs() {
  DataSet state;
  state.put(DataSpec("D1").with_classification("POD-Parameter"));
  state.put(DataSpec("D7").with_classification("2D Image"));
  return state;
}

TEST(ServiceType, BindInputsSucceeds) {
  const ServiceType service = pod();
  const DataSet state = pod_inputs();  // bindings point into this set
  const auto bindings = service.bind_inputs(state);
  ASSERT_TRUE(bindings.has_value());
  EXPECT_EQ(bindings->at("A")->name(), "D1");
  EXPECT_EQ(bindings->at("B")->name(), "D7");
  EXPECT_TRUE(service.executable_in(pod_inputs()));
}

TEST(ServiceType, BindInputsFailsWhenDataMissing) {
  const ServiceType service = pod();
  DataSet state;
  state.put(DataSpec("D1").with_classification("POD-Parameter"));
  EXPECT_FALSE(service.bind_inputs(state).has_value());
  EXPECT_FALSE(service.executable_in(state));
}

TEST(ServiceType, BindInputsRequiresDistinctItems) {
  // PSF needs TWO distinct 3D models; one is not enough even though it would
  // satisfy both comparisons individually.
  ServiceType psf("PSF");
  psf.set_inputs({"A", "B", "C"});
  psf.set_input_condition(Condition::parse(
      "A.Classification = \"PSF-Parameter\" and B.Classification = \"3D Model\" and "
      "C.Classification = \"3D Model\""));
  DataSet one_model;
  one_model.put(DataSpec("D6").with_classification("PSF-Parameter"));
  one_model.put(DataSpec("M1").with_classification("3D Model"));
  EXPECT_FALSE(psf.bind_inputs(one_model).has_value());

  one_model.put(DataSpec("M2").with_classification("3D Model"));
  EXPECT_TRUE(psf.bind_inputs(one_model).has_value());
}

TEST(ServiceType, BindInputsBacktracks) {
  // A greedy left-to-right binder could bind A to the wrong item; the search
  // must backtrack to find the valid assignment.
  ServiceType service("S");
  service.set_inputs({"A", "B"});
  service.set_input_condition(
      Condition::parse("A.Kind = \"x\" and B.Kind = \"x\" and B.Level > 5"));
  DataSet state;
  state.put(DataSpec("first").with("Kind", meta::Value("x")).with("Level", meta::Value(9.0)));
  state.put(DataSpec("second").with("Kind", meta::Value("x")).with("Level", meta::Value(1.0)));
  const auto bindings = service.bind_inputs(state);
  ASSERT_TRUE(bindings.has_value());
  EXPECT_EQ(bindings->at("B")->name(), "first");
  EXPECT_EQ(bindings->at("A")->name(), "second");
}

TEST(ServiceType, ProduceOutputsCarriesEqualities) {
  const ServiceType service = pod();
  const auto outputs = service.produce_outputs("POD#1:");
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].name(), "POD#1:C");
  EXPECT_EQ(outputs[0].classification(), "Orientation File");
  EXPECT_EQ(outputs[0].get(props::kCreator).as_string(), "POD");
}

TEST(ServiceType, NoInputsIsTriviallyExecutable) {
  ServiceType generator("GEN");
  generator.set_outputs({"X"});
  generator.set_output_condition(Condition::parse("X.Classification = \"Seed\""));
  EXPECT_TRUE(generator.executable_in(DataSet{}));
  EXPECT_EQ(generator.produce_outputs("g:").size(), 1u);
}

TEST(ServiceType, CopiedAndReassignedServicesBindLikeTheOriginal) {
  // The binder and output tables travel with every copy and move, so a
  // const ServiceType never needs to rebuild them (concurrent planners share
  // catalogue entries).
  const ServiceType original = pod();
  const ServiceType copy = original;
  ServiceType moved_from = pod();
  ServiceType moved_to = std::move(moved_from);
  moved_from = original;  // a moved-from service is reassigned, then used

  const DataSet good = pod_inputs();
  DataSet bad;
  bad.put(DataSpec("D1").with_classification("POD-Parameter"));
  const std::vector<const ServiceType*> services{&copy, &moved_to, &moved_from};
  for (const ServiceType* service : services) {
    const auto bindings = service->bind_inputs(good);
    ASSERT_TRUE(bindings.has_value());
    EXPECT_EQ(bindings->at("A")->name(), "D1");
    EXPECT_EQ(bindings->at("B")->name(), "D7");
    EXPECT_FALSE(service->bind_inputs(bad).has_value());
    const auto outputs = service->produce_outputs("POD#1:");
    ASSERT_EQ(outputs.size(), 1u);
    EXPECT_EQ(outputs[0], original.produce_outputs("POD#1:")[0]);
  }
}

TEST(Catalogue, AddFindReplace) {
  ServiceCatalogue catalogue;
  catalogue.add(pod());
  EXPECT_TRUE(catalogue.contains("POD"));
  EXPECT_EQ(catalogue.size(), 1u);
  ServiceType updated = pod();
  updated.set_cost(99.0);
  catalogue.add(std::move(updated));
  EXPECT_EQ(catalogue.size(), 1u);  // replaced, not appended
  EXPECT_DOUBLE_EQ(catalogue.find("POD")->cost(), 99.0);
  EXPECT_EQ(catalogue.find("NOPE"), nullptr);
}

TEST(Catalogue, Names) {
  const ServiceCatalogue catalogue = virolab::make_catalogue();
  const auto names = catalogue.names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "POD");
  EXPECT_EQ(names[3], "PSF");
}

// --- The virolab chain C1..C8 ------------------------------------------------

TEST(VirolabChain, FullPipelineBindsStepByStep) {
  const ServiceCatalogue catalogue = virolab::make_catalogue();
  DataSet state = virolab::make_initial_data();

  // POD is the only service executable initially (P3DR needs an orientation
  // file, POR additionally a model, PSF two models).
  EXPECT_TRUE(catalogue.find("POD")->executable_in(state));
  EXPECT_FALSE(catalogue.find("P3DR")->executable_in(state));
  EXPECT_FALSE(catalogue.find("POR")->executable_in(state));
  EXPECT_FALSE(catalogue.find("PSF")->executable_in(state));

  for (auto& out : catalogue.find("POD")->produce_outputs("pod:")) state.put(std::move(out));
  EXPECT_TRUE(catalogue.find("P3DR")->executable_in(state));
  EXPECT_FALSE(catalogue.find("POR")->executable_in(state));

  for (auto& out : catalogue.find("P3DR")->produce_outputs("p3dr1:")) state.put(std::move(out));
  EXPECT_TRUE(catalogue.find("POR")->executable_in(state));
  EXPECT_FALSE(catalogue.find("PSF")->executable_in(state));  // one model only

  for (auto& out : catalogue.find("P3DR")->produce_outputs("p3dr2:")) state.put(std::move(out));
  EXPECT_TRUE(catalogue.find("PSF")->executable_in(state));

  for (auto& out : catalogue.find("PSF")->produce_outputs("psf:")) state.put(std::move(out));
  EXPECT_EQ(state.with_classification(virolab::cls::kResolutionFile).size(), 1u);
}

}  // namespace
}  // namespace ig::wfl
